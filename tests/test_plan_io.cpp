// test_plan_io.cpp — GraphPlan::save / GraphPlan::load: bit-identical
// round trips across the whole benchmark suite, distance equality from a
// loaded plan under every registered algorithm, rejection of malformed
// files, and a checked-in golden file guarding the on-disk format against
// silent drift.
//
// Regenerating the golden (only when the format version is bumped):
//   DSG_REGEN_GOLDEN=1 ./test_plan_io --gtest_filter=PlanGolden.*
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_support/suite.hpp"
#include "graphblas/context.hpp"
#include "serving/plan_io.hpp"
#include "sssp/plan.hpp"
#include "sssp/solver.hpp"
#include "test_support.hpp"

namespace dsg {
namespace {

using grb::Index;

std::string temp_plan_path(const std::string& stem) {
  return ::testing::TempDir() + "dsg_" + stem + ".plan";
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

/// Everything observable must survive the trip bit-for-bit: the CSR, Δ and
/// its provenance, the stats, the fingerprint, and the split each plan
/// builds from them.
void expect_bit_identical(const GraphPlan& original, const GraphPlan& loaded) {
  const grb::Matrix<double>& a = original.matrix();
  const grb::Matrix<double>& b = loaded.matrix();
  ASSERT_EQ(a.nrows(), b.nrows());
  ASSERT_EQ(a.nvals(), b.nvals());
  EXPECT_TRUE(std::equal(a.row_ptr().begin(), a.row_ptr().end(),
                         b.row_ptr().begin(), b.row_ptr().end()));
  EXPECT_TRUE(std::equal(a.col_ind().begin(), a.col_ind().end(),
                         b.col_ind().begin(), b.col_ind().end()));
  EXPECT_TRUE(std::equal(a.raw_values().begin(), a.raw_values().end(),
                         b.raw_values().begin(), b.raw_values().end()));

  EXPECT_EQ(original.delta(), loaded.delta());
  EXPECT_EQ(original.delta_was_auto(), loaded.delta_was_auto());

  const PlanStats& sa = original.stats();
  const PlanStats& sb = loaded.stats();
  EXPECT_EQ(sa.num_vertices, sb.num_vertices);
  EXPECT_EQ(sa.num_edges, sb.num_edges);
  EXPECT_EQ(sa.max_out_degree, sb.max_out_degree);
  EXPECT_EQ(sa.avg_out_degree, sb.avg_out_degree);
  EXPECT_EQ(sa.max_weight, sb.max_weight);
  EXPECT_EQ(sa.min_positive_weight, sb.min_positive_weight);

  const detail::LightHeavySplit& la = original.light_heavy();
  const detail::LightHeavySplit& lb = loaded.light_heavy();
  EXPECT_TRUE(std::ranges::equal(la.light_ptr, lb.light_ptr));
  EXPECT_TRUE(std::ranges::equal(la.light_ind, lb.light_ind));
  EXPECT_TRUE(std::ranges::equal(la.light_val, lb.light_val));
  EXPECT_TRUE(std::ranges::equal(la.heavy_ptr, lb.heavy_ptr));
  EXPECT_TRUE(std::ranges::equal(la.heavy_ind, lb.heavy_ind));
  EXPECT_TRUE(std::ranges::equal(la.heavy_val, lb.heavy_val));

  // Same bytes => same structural fingerprint (the cache-key anchor).
  EXPECT_EQ(original.fingerprint(), loaded.fingerprint());

  // A loaded plan builds one split, as a fresh one does.
  test::expect_one_split(loaded);
}

TEST(PlanIoRoundTrip, EverySuiteGraphBitIdentical) {
  for (const SuiteEntry& entry : benchmark_suite()) {
    SCOPED_TRACE("graph=" + entry.name);
    GraphPlan plan(entry.make().to_matrix());
    const std::string path = temp_plan_path("suite_" + entry.name);
    plan.save(path);
    GraphPlan loaded = GraphPlan::load(path);
    expect_bit_identical(plan, loaded);
    std::remove(path.c_str());
  }
}

// Unit-weight graphs put every edge in the light partition; the weighted
// variants exercise a genuinely mixed light/heavy split (and non-trivial
// weight stats) through the same trip.  First five only: the two largest
// graphs already round-tripped above, and the split structure — not the
// graph scale — is what the weighted leg adds.
TEST(PlanIoRoundTrip, WeightedSuiteGraphsBitIdentical) {
  std::vector<SuiteEntry> entries = weighted_suite();
  entries.resize(5);
  for (const SuiteEntry& entry : entries) {
    SCOPED_TRACE("graph=" + entry.name);
    GraphPlan plan(entry.make().to_matrix());
    const std::string path = temp_plan_path("suite_" + entry.name);
    plan.save(path);
    GraphPlan loaded = GraphPlan::load(path);
    expect_bit_identical(plan, loaded);
    std::remove(path.c_str());
  }
}

// The file stores A only: a loaded plan starts with nothing materialized,
// and the split it then builds equals a fresh plan's, whether it is a
// genuine A_L/A_H pair (mixed weights) or A itself (unit weights, Δ = 1).
TEST(PlanIoRoundTrip, LoadedPlanBuildsItsSplitLazily) {
  struct Case {
    const char* name;
    EdgeList graph;
    double delta;
    bool light_is_a;
  };
  const Case cases[] = {{"mixed", test::diamond_graph(), 2.5, false},
                        {"unit", test::path_graph(40), 1.0, true}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = temp_plan_path(std::string("lazy_") + c.name);
    GraphPlan(c.graph.to_matrix(), c.delta).save(path);
    GraphPlan loaded = GraphPlan::load(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.setup_seconds(), 0.0);  // no split, no fingerprint

    const GraphPlan fresh(c.graph.to_matrix(), c.delta);
    EXPECT_TRUE(loaded.light_matrix() == fresh.light_matrix());
    EXPECT_TRUE(loaded.heavy_matrix() == fresh.heavy_matrix());
    EXPECT_GT(loaded.setup_seconds(), 0.0);
    EXPECT_EQ(&loaded.light_matrix() == &loaded.matrix(), c.light_is_a);
    test::expect_one_split(loaded);
  }
}

TEST(PlanIoRoundTrip, ExplicitDeltaSurvives) {
  GraphPlan plan(test::diamond_graph().to_matrix(), 2.5);
  ASSERT_FALSE(plan.delta_was_auto());
  const std::string path = temp_plan_path("explicit_delta");
  plan.save(path);
  GraphPlan loaded = GraphPlan::load(path);
  EXPECT_EQ(loaded.delta(), 2.5);
  EXPECT_FALSE(loaded.delta_was_auto());
  std::remove(path.c_str());
}

TEST(PlanIoRoundTrip, AutoDeltaProvenanceSurvives) {
  GraphPlan plan(test::zigzag_graph().to_matrix(), kAutoDelta);
  ASSERT_TRUE(plan.delta_was_auto());
  const std::string path = temp_plan_path("auto_delta");
  plan.save(path);
  GraphPlan loaded = GraphPlan::load(path);
  EXPECT_EQ(loaded.delta(), plan.delta());
  EXPECT_TRUE(loaded.delta_was_auto());
  std::remove(path.c_str());
}

// The acceptance bar: a loaded plan is indistinguishable from the
// in-memory plan to every registered algorithm — distances EXPECT_EQ
// (exact, not approximate; the bytes driving the arithmetic are
// identical).
TEST(PlanIoRoundTrip, LoadedPlanDistancesMatchInMemoryAllAlgorithms) {
  struct Case {
    const char* name;
    grb::Matrix<double> a;
    double delta;
  };
  std::vector<Case> cases;
  cases.push_back({"diamond", test::diamond_graph().to_matrix(), 3.0});
  cases.push_back({"zigzag", test::zigzag_graph().to_matrix(), 0.4});
  cases.push_back(
      {"two_islands", test::two_islands_graph().to_matrix(), kAutoDelta});

  for (Case& c : cases) {
    SCOPED_TRACE(std::string("graph=") + c.name);
    GraphPlan plan(std::move(c.a), c.delta);
    const std::string path = temp_plan_path(std::string("dist_") + c.name);
    plan.save(path);
    GraphPlan loaded = GraphPlan::load(path);
    for (const sssp::AlgorithmInfo& info : sssp::algorithm_registry()) {
      SCOPED_TRACE(std::string("algorithm=") + info.name);
      grb::Context ctx_mem;
      grb::Context ctx_load;
      ExecOptions exec;
      exec.num_threads = 2;
      const SsspResult from_memory = info.run(plan, ctx_mem, 0, exec);
      const SsspResult from_file = info.run(loaded, ctx_load, 0, exec);
      ASSERT_EQ(from_memory.dist.size(), from_file.dist.size());
      for (std::size_t v = 0; v < from_memory.dist.size(); ++v) {
        EXPECT_EQ(from_memory.dist[v], from_file.dist[v]) << "vertex " << v;
      }
    }
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Rejection: every malformed input is refused with grb::InvalidValue, never
// a crash or a silently wrong plan.
// ---------------------------------------------------------------------------

// Byte offsets in the diamond plan (5 vertices, 10 edges): header fields
// per PlanFileHeader in plan_io.cpp, then row_ptr (6), col_ind (10) and
// val (10), 8 bytes each.
constexpr std::size_t kNumVerticesAt = 24;
constexpr std::size_t kNumEdgesAt = 32;
constexpr std::size_t kDeltaAt = 40;
constexpr std::size_t kMaxWeightAt = 56;
constexpr std::size_t kChecksumAt = serving::kPlanHeaderBytes - 8;  // 88
constexpr std::size_t kRowPtrAt = serving::kPlanHeaderBytes;        // 96
constexpr std::size_t kColIndAt = kRowPtrAt + 6 * 8;                // 144
constexpr std::size_t kValAt = kColIndAt + 10 * 8;                  // 224

class PlanIoReject : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphPlan plan(test::diamond_graph().to_matrix(), 2.5);
    path_ = temp_plan_path("reject");
    plan.save(path_);
    bytes_ = read_file(path_);
    ASSERT_GT(bytes_.size(), serving::kPlanHeaderBytes);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  void expect_rejected(const std::string& why) {
    write_file(path_, bytes_);
    try {
      GraphPlan loaded = GraphPlan::load(path_);
      FAIL() << "load accepted a malformed file (" << why << ")";
    } catch (const grb::InvalidValue& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << "actual message: " << e.what();
    }
  }

  void patch(std::size_t offset, std::uint64_t value) {
    std::memcpy(bytes_.data() + offset, &value, sizeof(value));
  }
  void patch(std::size_t offset, double value) {
    std::memcpy(bytes_.data() + offset, &value, sizeof(value));
  }

  /// Forge a matching checksum for the current (patched) bytes: the
  /// checksum gate only screens accidental corruption, so these tests
  /// walk straight through it to the validators behind it.
  void restamp_checksum() {
    const std::uint64_t sum =
        serving::PlanIo::file_checksum(bytes_.data(), bytes_.size());
    std::memcpy(bytes_.data() + kChecksumAt, &sum, sizeof(sum));
  }

  std::string path_;
  std::vector<unsigned char> bytes_;
};

TEST_F(PlanIoReject, MissingFile) {
  EXPECT_THROW(GraphPlan::load(path_ + ".does-not-exist"), grb::InvalidValue);
}

TEST_F(PlanIoReject, TruncatedHeader) {
  bytes_.resize(50);
  expect_rejected("truncated header");
}

TEST_F(PlanIoReject, TruncatedPayload) {
  bytes_.resize(bytes_.size() - 8);
  expect_rejected("file size mismatch");
}

TEST_F(PlanIoReject, TrailingGarbage) {
  bytes_.push_back(0xAB);
  expect_rejected("file size mismatch");
}

TEST_F(PlanIoReject, CorruptMagic) {
  bytes_[0] = 'X';
  expect_rejected("bad magic");
}

TEST_F(PlanIoReject, WrongVersion) {
  bytes_[8] = static_cast<unsigned char>(serving::kPlanFormatVersion + 1);
  expect_rejected("unsupported format version");
}

TEST_F(PlanIoReject, ForeignEndianHeader) {
  // The endian marker lives at offset 12; byte-swapping it is exactly what
  // a foreign-endian writer would have produced.
  std::swap(bytes_[12], bytes_[15]);
  std::swap(bytes_[13], bytes_[14]);
  expect_rejected("endianness mismatch");
}

TEST_F(PlanIoReject, PayloadBitFlip) {
  bytes_[bytes_.size() - 1] ^= 0x01;
  expect_rejected("checksum mismatch");
}

TEST_F(PlanIoReject, HeaderStatsBitFlip) {
  // max_weight: inside the checksummed header region but after every
  // field the structural validators look at.
  bytes_[kMaxWeightAt] ^= 0x01;
  expect_rejected("checksum mismatch");
}

// ---------------------------------------------------------------------------
// Adversarial headers: counts chosen so the size arithmetic itself is the
// attack surface.  These must be rejected BEFORE any allocation — the
// overflow-checked checked_payload_bytes path.
// ---------------------------------------------------------------------------

TEST_F(PlanIoReject, HeaderCountsOverflowUint64) {
  // (num_vertices + 1) * 8 wraps: a naive computation would alias a small
  // payload size and commit memory the file cannot back.
  patch(kNumVerticesAt, ~std::uint64_t{0} - 1);
  restamp_checksum();
  expect_rejected("header counts overflow");
}

TEST_F(PlanIoReject, HeaderCountSumOverflows) {
  // Each product fits (2^60 * 8 = 2^63) but col_ind + val wraps the sum.
  patch(kNumEdgesAt, std::uint64_t{1} << 60);
  restamp_checksum();
  expect_rejected("header counts overflow");
}

TEST_F(PlanIoReject, HeaderCountsExceedFileSize) {
  // No overflow, just a claimed payload far beyond the real byte count:
  // caught by the exact size cross-check, still before any allocation.
  patch(kNumEdgesAt, std::uint64_t{1} << 40);
  restamp_checksum();
  expect_rejected("file size mismatch");
}

// ---------------------------------------------------------------------------
// Forged checksum: FNV-1a is not cryptographic, so an adversary stamps a
// valid checksum over corrupted content.  Every semantic validator must
// hold with the gate forged open.
// ---------------------------------------------------------------------------

TEST_F(PlanIoReject, ForgedNaNDelta) {
  patch(kDeltaAt, std::nan(""));
  restamp_checksum();
  expect_rejected("invalid delta");
}

TEST_F(PlanIoReject, ForgedZeroDelta) {
  patch(kDeltaAt, 0.0);
  restamp_checksum();
  expect_rejected("invalid delta");
}

TEST_F(PlanIoReject, ForgedNegativeWeight) {
  patch(kValAt, -2.0);
  restamp_checksum();
  expect_rejected("non-finite or negative edge weight");
}

TEST_F(PlanIoReject, ForgedNaNWeight) {
  patch(kValAt, std::nan(""));
  restamp_checksum();
  expect_rejected("non-finite or negative edge weight");
}

TEST_F(PlanIoReject, ForgedRowPtrRiseThenFall) {
  // row_ptr[1] jumps past nnz while row_ptr[5] still ends at 10:
  // monotone-so-far, both endpoints plausible — the per-row bound check
  // in grb::audit::check_csr is what must catch it (it used to read
  // col_ind out of bounds instead).
  patch(kRowPtrAt + 8, std::uint64_t{1} << 20);
  restamp_checksum();
  expect_rejected("structurally invalid payload");
}

TEST_F(PlanIoReject, ForgedColIndOutOfRange) {
  // col_ind[0] points far outside the 5-vertex graph.
  patch(kColIndAt, std::uint64_t{1} << 30);
  restamp_checksum();
  expect_rejected("structurally invalid payload");
}

// ---------------------------------------------------------------------------
// Golden file: tests/data/diamond.plan, written at format version 2 with a
// pinned Δ of 2.5.  A format change that still round-trips (writer and
// reader drifting together) cannot pass this test without a deliberate
// golden regeneration.
// ---------------------------------------------------------------------------

TEST(PlanGolden, CheckedInFileLoads) {
  const std::string golden = std::string(DSG_TEST_DATA_DIR) + "/diamond.plan";
  if (std::getenv("DSG_REGEN_GOLDEN") != nullptr) {
    GraphPlan plan(test::diamond_graph().to_matrix(), 2.5);
    plan.save(golden);
  }
  GraphPlan loaded = GraphPlan::load(golden);
  EXPECT_EQ(loaded.num_vertices(), 5u);
  EXPECT_EQ(loaded.stats().num_edges, 10u);
  EXPECT_EQ(loaded.delta(), 2.5);
  EXPECT_FALSE(loaded.delta_was_auto());

  grb::Context ctx;
  const SsspResult r =
      sssp::algorithm_info(sssp::Algorithm::kFused).run(loaded, ctx, 0, {});
  test::expect_distances(r.dist, test::diamond_distances_from_0(), "golden");

  // And the golden is bit-identical to what today's writer produces.
  GraphPlan fresh(test::diamond_graph().to_matrix(), 2.5);
  const std::string rewritten = temp_plan_path("golden_rewrite");
  fresh.save(rewritten);
  EXPECT_EQ(read_file(golden), read_file(rewritten));
  std::remove(rewritten.c_str());
}

}  // namespace
}  // namespace dsg
