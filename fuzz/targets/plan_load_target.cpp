// plan_load_target.cpp — fuzz entry point for the binary plan loader.
//
// Drives PlanIo::load_bytes directly (no temp file: the loader's contract
// is over bytes, and the fuzzer iterates far faster without filesystem
// traffic).  A successfully loaded plan is additionally poked — stats,
// fingerprint, light/heavy split — so a structurally unsound plan that
// somehow survived validation still has a chance to crash inside the
// harness rather than in some later consumer.
#include "fuzz_targets.hpp"

#include "graphblas/types.hpp"
#include "serving/plan_io.hpp"

namespace dsg::fuzz {

int plan_load_target(const std::uint8_t* data, std::size_t size) {
  try {
    GraphPlan plan = serving::PlanIo::load_bytes(
        reinterpret_cast<const unsigned char*>(data), size, "<fuzz input>");
    // Exercise the loaded plan: these walk the adopted CSR and build the
    // split from it, which is where a validation gap would detonate.
    (void)plan.fingerprint();
    (void)plan.light_heavy();
    (void)plan.stats();
  } catch (const grb::InvalidValue&) {
    // The allowed rejection path: a named parse/validation failure.
  }
  return 0;
}

}  // namespace dsg::fuzz
