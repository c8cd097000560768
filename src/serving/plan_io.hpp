// plan_io.hpp — version-stamped binary persistence for GraphPlan, the
// cold-start half of the serving layer.
//
// A plan file carries everything a server needs to answer queries without
// re-validating the graph: the adjacency CSR of A, the construction-time
// weight/degree statistics and the pinned Δ.  It stores A once and nothing
// derived from it: the light/heavy split is one count pass (and, for a
// mixed graph, one fill pass) over A, which a loaded plan pays lazily on
// first use like a fresh plan, so a plan routed to a core that reads no
// split (Dijkstra, Bellman-Ford) never builds one.  Loading is O(bytes):
// one word-wise checksum pass, memcpy into the owning vectors, and the
// weight and CSR audits — instead of the O(|E|) validation scan a fresh
// GraphPlan pays.
//
// File layout (all scalars little-or-big per the writing host; the header
// carries an endianness marker so a foreign-endian reader rejects cleanly
// instead of decoding garbage):
//
//   [ 96-byte header, 8-byte aligned ]
//     magic "DSGPLAN\n", format version, endian marker 0x01020304,
//     index/value widths (64/64), counts (|V|, |E|), Δ + delta_was_auto,
//     the PlanStats scalars, and an FNV-1a checksum over the rest of the
//     header and the whole payload, taken 8 bytes at a time.
//   [ payload: three 8-byte-aligned arrays, no padding between them ]
//     row_ptr (|V|+1), col_ind (|E|), val (|E|).
//
// The header fully determines the file size, so truncation is detected
// before any payload is touched; the checksum catches bit corruption in
// either region.  Rejections throw grb::InvalidValue with a message
// naming the failing check (see tests/test_plan_io.cpp).
//
// Adversarial inputs: the loader treats every byte as hostile (the fuzz
// harness in fuzz/ drives it with arbitrary data).  Header counts are
// combined with overflow-checked arithmetic and cross-checked against the
// actual file size BEFORE any allocation, so a forged header can neither
// overflow the size computation into a colliding total nor commit memory
// the file cannot back.  The checksum is FNV-1a over 8-byte words — fast,
// not cryptographic, and trivially forgeable; each word step is a
// bijection, so any single-word corruption still changes the sum.  After
// extraction the loader always runs the full structural validation (CSR
// shape, finite non-negative weights, Δ > 0) and rejects with a named
// grb::InvalidValue; the checksum only screens accidental corruption.
#pragma once

#include <cstdint>
#include <string>

#include "sssp/plan.hpp"

namespace dsg::serving {

/// On-disk format version.  Bump on ANY layout change (readers reject
/// every other version) and regenerate tests/data/*.plan goldens.
inline constexpr std::uint32_t kPlanFormatVersion = 2;

/// Fixed header size in bytes (kept in sync with the PlanFileHeader
/// layout in plan_io.cpp by a static_assert there).
inline constexpr std::size_t kPlanHeaderBytes = 96;

/// The saver/loader behind GraphPlan::save / GraphPlan::load.  A class
/// rather than free functions because loading goes through GraphPlan's
/// private trusted-deserialization constructor (friend access): the
/// checksum lets the loader skip re-deriving the stats scalars, while the
/// structural scan (which does not trust the checksum) keeps a forged
/// file from materializing a memory-unsafe plan.
class PlanIo {
 public:
  static void save(const GraphPlan& plan, const std::string& path);
  static GraphPlan load(const std::string& path);

  /// The same parse over an in-memory byte range (the file contents).
  /// `origin` names the source in rejection messages.  This is the entry
  /// point the fuzz harness drives: for ANY (data, size) it either
  /// returns a fully validated plan or throws grb::InvalidValue — never
  /// crashes, never over-allocates past what `size` can back.
  static GraphPlan load_bytes(const unsigned char* data, std::size_t size,
                              const std::string& origin);

  /// The checksum a well-formed file image of these bytes must carry
  /// (word-wise FNV-1a over the header with its checksum field zeroed,
  /// then the rest).  Exposed for tests and the structure-aware fuzz mutator,
  /// which re-stamp the field after editing header/payload bytes so
  /// mutations reach the validators behind the checksum gate.  Requires
  /// size >= kPlanHeaderBytes.
  static std::uint64_t file_checksum(const unsigned char* data,
                                     std::size_t size);
};

}  // namespace dsg::serving
