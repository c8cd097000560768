// async_stepping.hpp — the lock-free asynchronous relaxation engine:
// asynchronous delta-stepping.
//
// The engine (async_stepping.cpp) is built on
// std::thread + std::atomic + std::barrier — deliberately *not* OpenMP,
// so ThreadSanitizer can verify the synchronization (libgomp's runtime
// carries no TSan annotations and reports false positives on correct
// OpenMP code; see the tsan job in .github/workflows/ci.yml).  The
// engine runs in coarse rounds:
//
//   - distances live in std::atomic<double>, relaxed via the write_min
//     CAS primitive (see write_min.hpp for the memory-ordering contract);
//   - each improvement lands in a per-thread local queue of 128 entries,
//     processed eagerly within the round; overflow and out-of-window
//     vertices spill into a shared concurrent bag (a flag array + an
//     atomic-cursor append list, deduplicated by flag exchange);
//   - the frontier is traversed sparse (work-stealing over the bag's
//     list) or dense (flag sweep), switched per round by a sampled
//     frontier-size estimate — the same deterministic strided-sampling
//     idiom as grb::Context::dense_output_crossover;
//   - a per-round threshold theta bounds which distances are relaxed now
//     versus deferred: the next bucket boundary (floor(min/delta)+1)*delta.
//
// Determinism contract: the *schedule* (rounds, relaxation order, stats)
// varies run to run, but the returned distances are bit-identical across
// thread counts and schedules — quiescence is the unique fp min-plus
// fixed point (write_min.hpp documents the argument).  The registry
// flags the variant deterministic = false because its SsspStats are
// schedule-dependent; SsspResult.dist is not.
//
// The per-phase timers (light/heavy/vector_seconds) stay 0: the fused
// relaxation has no phase structure to attribute time to.
// stats.outer_iterations counts rounds and stats.relax_requests counts
// vertices relaxed (frontier members plus local-queue hits), matching
// the vertex-granular accounting of the deterministic engines.
#pragma once

#include "sssp/common.hpp"
#include "sssp/plan.hpp"

namespace grb {
class Context;
}

namespace dsg {

/// Asynchronous delta-stepping.  Buckets by the plan's delta but relaxes
/// each bucket lock-free instead of in two-pass deterministic phases.
/// Uses ExecOptions::num_threads (0 = hardware concurrency, 1 = inline on
/// the calling thread).
SsspResult delta_stepping_async(const GraphPlan& plan, grb::Context& ctx,
                                Index source, const ExecOptions& exec);

}  // namespace dsg
