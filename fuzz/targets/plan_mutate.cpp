// plan_mutate.cpp — structure-aware mutator for the binary plan format.
//
// A byte-blind mutator wastes nearly every execution on "bad magic" /
// "checksum mismatch": the format front-loads cheap gates, so random
// flips almost never reach the interesting validators (count arithmetic,
// CSR structure, weights).  This mutator knows the
// layout — seeded in practice from tests/data/diamond.plan — and mutates
// header fields and payload sections INDEPENDENTLY, then usually
// re-stamps the FNV checksum so the mutant walks through the gate.
//
// Strategy mix per call (driven by a private LCG on `seed`, so a corpus
// entry + seed reproduces exactly — no global RNG, no libc rand):
//   - header-field surgery: pick one of the u32/u64/double fields and
//     rewrite it (zero, max, off-by-one, sign-flip, small delta);
//   - payload section surgery: pick an 8-byte slot in one of the three
//     arrays and rewrite it the same way (corrupting row_ptr monotonicity,
//     column ranges, weight signs/NaNs);
//   - length surgery: grow or shrink the tail (truncation / trailing
//     garbage paths);
//   - raw byte flips (small %): keeps the cheap gates themselves covered.
// 7/8 of mutants get a valid checksum re-stamped; 1/8 keep the stale one
// so the mismatch path stays exercised too.
#include "fuzz_targets.hpp"

#include <algorithm>
#include <cstring>

#include "serving/plan_io.hpp"

namespace dsg::fuzz {

namespace {

/// Minimal deterministic PRNG (LCG, Numerical Recipes constants).  The
/// mutator must be a pure function of (bytes, seed) for replayability.
struct Lcg {
  std::uint64_t state;
  explicit Lcg(unsigned int seed) : state(seed * 2654435761ULL + 1) {}
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 16;
  }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
};

/// Offsets of the mutable scalar fields inside the 96-byte header
/// (magic and checksum are handled separately).
constexpr std::size_t kHeaderFieldOffsets[] = {
    8,   // version (u32)
    12,  // endian marker (u32)
    16,  // index_bits (u32)
    20,  // value_bits (u32)
    24,  // num_vertices (u64)
    32,  // num_edges (u64)
    40,  // delta (double)
    48,  // delta_was_auto (u64)
    56,  // max_weight (double)
    64,  // min_positive_weight (double)
    72,  // max_out_degree (u64)
    80,  // avg_out_degree (double)
};

/// The checksum is the header's last field.
constexpr std::size_t kChecksumOffset = serving::kPlanHeaderBytes - 8;

void mutate_u64_slot(std::uint8_t* slot, Lcg& rng) {
  std::uint64_t v = 0;
  std::memcpy(&v, slot, 8);
  switch (rng.below(8)) {
    case 0: v = 0; break;
    case 1: v = ~std::uint64_t{0}; break;
    case 2: v += 1; break;
    case 3: v -= 1; break;
    case 4: v ^= std::uint64_t{1} << rng.below(64); break;
    case 5: v = rng.next(); break;
    case 6: {  // reinterpret as double and negate / NaN-ify
      double d = 0.0;
      std::memcpy(&d, slot, 8);
      d = (rng.below(2) != 0U) ? -d : d * 0.0 / 0.0;
      std::memcpy(&v, &d, 8);
      break;
    }
    default: v = v << rng.below(16); break;
  }
  std::memcpy(slot, &v, 8);
}

}  // namespace

std::size_t plan_mutate(std::uint8_t* data, std::size_t size,
                        std::size_t max_size, unsigned int seed) {
  Lcg rng(seed);
  if (size < serving::kPlanHeaderBytes) {
    // Too short to be structured — grow toward a full header with noise
    // so the fuzzer can climb into the format at all.
    const std::size_t target =
        std::min(max_size, serving::kPlanHeaderBytes + rng.below(64));
    for (std::size_t i = size; i < target; ++i) {
      data[i] = static_cast<std::uint8_t>(rng.next());
    }
    if (target > 0) data[rng.below(target)] ^= 1U << rng.below(8);
    return target == 0 ? size : target;
  }

  std::size_t new_size = size;
  switch (rng.below(8)) {
    case 0: case 1: case 2: {  // header-field surgery
      const std::size_t field = kHeaderFieldOffsets[rng.below(
          sizeof(kHeaderFieldOffsets) / sizeof(kHeaderFieldOffsets[0]))];
      if (field == 8 || field == 12 || field == 16 || field == 20) {
        std::uint32_t v = 0;
        std::memcpy(&v, data + field, 4);
        switch (rng.below(4)) {
          case 0: v = 0; break;
          case 1: v = ~std::uint32_t{0}; break;
          case 2: v += 1; break;
          default: v = static_cast<std::uint32_t>(rng.next()); break;
        }
        std::memcpy(data + field, &v, 4);
      } else {
        mutate_u64_slot(data + field, rng);
      }
      break;
    }
    case 3: case 4: case 5: {  // payload 8-byte slot surgery
      if (size > serving::kPlanHeaderBytes + 8) {
        const std::size_t slots =
            (size - serving::kPlanHeaderBytes) / 8;
        const std::size_t slot =
            serving::kPlanHeaderBytes + 8 * rng.below(slots);
        mutate_u64_slot(data + slot, rng);
      }
      break;
    }
    case 6: {  // length surgery: truncate or extend the tail
      if (rng.below(2) == 0 && size > 1) {
        new_size = size - 1 - rng.below(std::min<std::size_t>(size - 1, 64));
      } else if (size < max_size) {
        const std::size_t grow =
            std::min(max_size - size, 1 + rng.below(64));
        for (std::size_t i = 0; i < grow; ++i) {
          data[size + i] = static_cast<std::uint8_t>(rng.next());
        }
        new_size = size + grow;
      }
      break;
    }
    default: {  // raw byte flip — keeps the front gates covered
      data[rng.below(size)] ^= 1U << rng.below(8);
      break;
    }
  }

  // Re-stamp the checksum most of the time so the mutation reaches the
  // validators behind the gate; leave it stale occasionally so the
  // mismatch path itself stays in the corpus.
  if (new_size >= serving::kPlanHeaderBytes && rng.below(8) != 0) {
    const std::uint64_t sum = serving::PlanIo::file_checksum(
        reinterpret_cast<const unsigned char*>(data), new_size);
    std::memcpy(data + kChecksumOffset, &sum, 8);
  }
  return new_size;
}

}  // namespace dsg::fuzz
