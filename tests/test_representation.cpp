// Tests for the dual sparse/dense Vector storage: representation round
// trips, bit-identity of every vector operation across representations
// (under masks x complement x structure x accum x replace), the Context
// density policy with its hysteresis band, and the dense-aware fast paths
// (O(1) point access, in-place relaxation, dense mask probing).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "graphblas/graphblas.hpp"
#include "sssp/delta_stepping_graphblas.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/paths.hpp"
#include "sssp/plan.hpp"
#include "sssp/solver.hpp"

namespace {

using grb::Index;

grb::Vector<double> random_vector(Index n, double density, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> vd(0.0, 10.0);
  std::bernoulli_distribution keep(density);
  grb::Vector<double> v(n);
  auto& vi = v.mutable_indices();
  auto& vv = v.mutable_values();
  for (Index i = 0; i < n; ++i) {
    if (keep(rng)) {
      vi.push_back(i);
      vv.push_back(vd(rng));
    }
  }
  return v;
}

grb::Vector<bool> random_mask(Index n, double density, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution keep(density);
  std::bernoulli_distribution truthy(0.5);
  grb::Vector<bool> m(n);
  auto& mi = m.mutable_indices();
  auto& mv = m.mutable_values();
  for (Index i = 0; i < n; ++i) {
    if (keep(rng)) {
      mi.push_back(i);
      mv.push_back(truthy(rng) ? 1 : 0);  // stored falses exercise value masks
    }
  }
  return m;
}

/// Asserts logical equality *and* identical canonical tuple dumps (the
/// strictest representation-independent comparison we have).
template <typename T>
void expect_identical(const grb::Vector<T>& a, const grb::Vector<T>& b) {
  EXPECT_EQ(a, b);
  std::vector<Index> ai, bi;
  std::vector<T> av, bv;
  a.extract_tuples(ai, av);
  b.extract_tuples(bi, bv);
  EXPECT_EQ(ai, bi);
  EXPECT_EQ(av, bv);
}

// ---------------------------------------------------------------------------
// Representation round trips.
// ---------------------------------------------------------------------------

TEST(Representation, RoundTripPreservesContentAndAccessors) {
  auto v = random_vector(200, 0.4, 1);
  auto original = v;
  ASSERT_FALSE(v.is_dense());

  v.to_dense();
  EXPECT_TRUE(v.is_dense());
  EXPECT_EQ(v.storage_kind(), grb::StorageKind::kDense);
  expect_identical(v, original);
  EXPECT_EQ(v.nvals(), original.nvals());
  for (Index i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v.has_element(i), original.has_element(i));
    EXPECT_EQ(v.extract_element(i), original.extract_element(i));
  }
  // Sorted-coordinate views keep working on a dense vector (the mirror).
  auto idx = v.indices();
  auto oidx = original.indices();
  ASSERT_EQ(idx.size(), oidx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) EXPECT_EQ(idx[k], oidx[k]);

  v.to_sparse();
  EXPECT_FALSE(v.is_dense());
  expect_identical(v, original);

  // Conversions are idempotent.
  v.to_sparse();
  expect_identical(v, original);
  v.to_dense();
  v.to_dense();
  expect_identical(v, original);
}

TEST(Representation, DenseMutationsAreO1AndInvalidateMirror) {
  auto v = random_vector(50, 0.5, 2);
  v.to_dense();
  const Index before = v.nvals();

  v.set_element(0, 42.0);  // may add or overwrite
  EXPECT_DOUBLE_EQ(*v.extract_element(0), 42.0);
  v.remove_element(0);
  EXPECT_FALSE(v.has_element(0));
  v.set_element(49, 7.0);
  EXPECT_TRUE(v.is_dense());

  // The mirror rebuilt after mutation matches a fresh sparse conversion.
  auto w = v;
  w.to_sparse();
  expect_identical(v, w);
  (void)before;
}

TEST(Representation, FullIsDenseAndToDenseArrayAgrees) {
  auto v = grb::Vector<double>::full(6, 3.5);
  EXPECT_TRUE(v.is_dense());
  EXPECT_EQ(v.nvals(), 6u);
  EXPECT_EQ(v.to_dense_array(-1.0), std::vector<double>(6, 3.5));
  v.remove_element(2);
  auto arr = v.to_dense_array(-1.0);
  EXPECT_DOUBLE_EQ(arr[2], -1.0);
  EXPECT_DOUBLE_EQ(arr[3], 3.5);
}

TEST(Representation, ClearAndResizeOnDense) {
  auto v = random_vector(30, 0.9, 3);
  v.to_dense();
  v.resize(10);
  EXPECT_EQ(v.size(), 10u);
  auto w = v;
  w.to_sparse();
  expect_identical(v, w);

  v.resize(40);
  EXPECT_EQ(v.size(), 40u);
  EXPECT_FALSE(v.has_element(35));

  v.clear();
  EXPECT_EQ(v.nvals(), 0u);
  EXPECT_FALSE(v.is_dense());  // an empty vector is canonically sparse
  EXPECT_EQ(v.size(), 40u);
}

TEST(Representation, EqualityIsRepresentationAgnostic) {
  auto a = random_vector(100, 0.6, 4);
  auto b = a;
  b.to_dense();
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, a);
  b.set_element(0, -1.0);
  EXPECT_NE(a, b);
}

TEST(Representation, BoolVectorDenseKeepsStoredFalse) {
  grb::Vector<bool> v(5);
  v.set_element(0, true);
  v.set_element(3, false);
  v.to_dense();
  EXPECT_EQ(v.nvals(), 2u);
  EXPECT_TRUE(*v.extract_element(0));
  EXPECT_FALSE(*v.extract_element(3));  // stored false survives conversion
  v.to_sparse();
  EXPECT_EQ(v.nvals(), 2u);
  EXPECT_FALSE(*v.extract_element(3));
}

TEST(Representation, MutableAccessorsCanonicalizeADenseVector) {
  // mutable_indices()/mutable_values() expose the *live* arrays (BFS
  // rewrites values in place); on a dense vector they must materialize and
  // convert, never drop content (regression: discard_dense here silently
  // emptied auto-promoted vectors).
  auto v = random_vector(40, 0.9, 33);
  auto expected = v;
  v.to_dense();
  auto& vals = v.mutable_values();
  EXPECT_FALSE(v.is_dense());
  ASSERT_EQ(vals.size(), static_cast<std::size_t>(expected.nvals()));
  for (auto& x : vals) x += 1.0;
  auto idx = v.indices();
  for (std::size_t k = 0; k < idx.size(); ++k) {
    EXPECT_DOUBLE_EQ(*v.extract_element(idx[k]),
                     *expected.extract_element(idx[k]) + 1.0);
  }
}

TEST(Representation, HasElementIsTotalOnDense) {
  auto v = random_vector(16, 0.8, 34);
  v.to_dense();
  EXPECT_FALSE(v.has_element(16));  // out of range answers false, like sparse
  EXPECT_FALSE(v.has_element(1000));
  EXPECT_FALSE(v.extract_element(16).has_value());
}

TEST(Representation, BfsParentsSurviveFrontierAutoPromotion) {
  // Regression: a two-level star whose first wavefront hits 50% density.
  // Auto-promotion used to make select's output dense and the in-place id
  // stamp then emptied it, silently losing parents for the second level.
  const Index n = 12;
  std::vector<Index> r, c;
  std::vector<double> w;
  auto edge = [&](Index a, Index b) {
    r.push_back(a); c.push_back(b); w.push_back(1.0);
    r.push_back(b); c.push_back(a); w.push_back(1.0);
  };
  for (Index v = 1; v <= 6; ++v) edge(0, v);
  for (Index v = 7; v <= 11; ++v) edge(1, v);
  auto a = grb::Matrix<double>::build(n, n, r, c, w);

  // GraphBLAS BFS parents: the wavefront carries candidate parent ids + 1
  // (so id 0 is distinguishable from "no value" in masks) and (min, first)
  // picks the smallest-id parent among competing predecessors.
  grb::Vector<Index> wavefront(n);
  grb::Vector<Index> parent(n);
  wavefront.set_element(0, 1);
  parent.set_element(0, 0);
  const auto min_first = grb::min_first_semiring<Index>();
  while (wavefront.nvals() > 0) {
    // ids = select(wavefront), then stamp ids[v] = v + 1 in place — the
    // step that lost entries when select's output was auto-promoted.
    grb::Vector<Index> ids(n);
    grb::select(
        ids, [](const Index&, Index) { return true; }, wavefront);
    auto& vals = ids.mutable_values();
    auto idx = ids.indices();
    ASSERT_EQ(vals.size(), idx.size());
    for (std::size_t k = 0; k < vals.size(); ++k) vals[k] = idx[k] + 1;
    // wavefront<!parent, replace> = ids (min.first) A
    grb::vxm(wavefront, parent, grb::NoAccumulate{}, min_first, ids, a,
             grb::Descriptor{.replace = true,
                             .mask_complement = true,
                             .mask_structure = true});
    // parent<wavefront, structural> = wavefront - 1
    grb::apply(
        parent, wavefront, grb::NoAccumulate{},
        [](const Index& x) { return x - 1; }, wavefront,
        grb::structure_mask_desc);
  }
  const auto parents = parent.to_dense_array(dsg::kNoParent);
  ASSERT_EQ(parents.size(), n);
  for (Index v = 1; v <= 6; ++v) EXPECT_EQ(parents[v], 0u) << "vertex " << v;
  for (Index v = 7; v <= 11; ++v) EXPECT_EQ(parents[v], 1u) << "vertex " << v;
}

// ---------------------------------------------------------------------------
// Word-packed bitmap edge cases: sizes straddling the 64-position word
// boundary, where tail-masking and the popcount recount can go wrong.
// ---------------------------------------------------------------------------

TEST(Representation, ResizeAcrossWordBoundaries) {
  for (Index n : {Index{63}, Index{64}, Index{65}, Index{127}, Index{128}}) {
    for (bool dense : {false, true}) {
      // Shrink to every interesting boundary: the stored count must be
      // recounted (dense: via popcount after tail-masking the last word)
      // and the content must equal the sparse-truncated reference.
      for (Index m : {Index{0}, Index{1}, Index{32}, Index{63}, Index{64},
                      Index{65}, n - 1, n}) {
        if (m > n) continue;
        auto v = random_vector(n, 0.7, 100 + n);
        auto ref = v;  // stays sparse
        if (dense) v.to_dense();
        v.resize(m);
        ref.resize(m);
        EXPECT_EQ(v.size(), m) << "n=" << n << " m=" << m << " dense=" << dense;
        EXPECT_EQ(v.nvals(), ref.nvals())
            << "n=" << n << " m=" << m << " dense=" << dense;
        expect_identical(v, ref);

        // Grow back past the next word boundary: dimension changes, the
        // stored set must not (grown positions are absent).
        const Index g = m + 65;
        v.resize(g);
        ref.resize(g);
        EXPECT_EQ(v.size(), g);
        EXPECT_EQ(v.nvals(), ref.nvals());
        EXPECT_FALSE(v.has_element(g - 1));
        expect_identical(v, ref);
      }

      // clear() canonicalizes to sparse regardless of word alignment.
      auto v = random_vector(n, 0.9, 200 + n);
      if (dense) v.to_dense();
      v.clear();
      EXPECT_EQ(v.nvals(), 0u);
      EXPECT_FALSE(v.is_dense());
      EXPECT_EQ(v.size(), n);
    }
  }
}

TEST(Representation, RoundTripAtWordBoundarySizes) {
  for (Index n : {Index{63}, Index{64}, Index{65}, Index{127}, Index{128}}) {
    auto v = random_vector(n, 0.8, 300 + n);
    auto original = v;
    v.to_dense();
    EXPECT_EQ(v.nvals(), original.nvals()) << "n=" << n;
    expect_identical(v, original);
    // The last logical position is exercised explicitly: it lives in the
    // tail word whose padding bits must stay zero.
    v.set_element(n - 1, 42.0);
    v.remove_element(n - 1);
    EXPECT_FALSE(v.has_element(n - 1));
    v.to_sparse();
    original.remove_element(n - 1);
    expect_identical(v, original);
  }
}

TEST(Representation, SwapDenseStorageInvalidatesStaleMirror) {
  const Index n = 130;  // two full words + a 2-bit tail
  auto v = random_vector(n, 0.8, 41);
  v.to_dense();
  // Materialize the sparse mirror, then install entirely new dense content
  // behind its back: the old mirror must not leak through any
  // sorted-coordinate accessor.
  ASSERT_GT(v.indices().size(), 0u);
  std::vector<grb::detail::BitmapWord> bm(grb::detail::bitmap_words(n), 0);
  std::vector<double> vals(n, 0.0);
  Index nnz = 0;
  for (Index i = 0; i < n; i += 2) {
    grb::detail::bitmap_set(bm.data(), i);
    vals[i] = static_cast<double>(i);
    ++nnz;
  }
  v.swap_dense_storage(bm, vals, nnz);
  EXPECT_TRUE(v.is_dense());
  EXPECT_EQ(v.nvals(), nnz);
  auto idx = v.indices();
  auto val = v.values();
  ASSERT_EQ(idx.size(), static_cast<std::size_t>(nnz));
  for (std::size_t k = 0; k < idx.size(); ++k) {
    EXPECT_EQ(idx[k], static_cast<Index>(2 * k));
    EXPECT_DOUBLE_EQ(val[k], static_cast<double>(2 * k));
  }
}

// ---------------------------------------------------------------------------
// Context density policy and hysteresis.
// ---------------------------------------------------------------------------

TEST(Representation, HysteresisAtTheSwitchThresholds) {
  grb::Context ctx;
  ctx.dense_promote_density = 0.5;
  ctx.dense_demote_density = 0.25;

  grb::Vector<double> v(100);
  for (Index i = 0; i < 49; ++i) v.set_element(i, 1.0);
  ctx.manage_representation(v);
  EXPECT_FALSE(v.is_dense()) << "below promote threshold stays sparse";

  v.set_element(49, 1.0);  // density exactly 0.5
  ctx.manage_representation(v);
  EXPECT_TRUE(v.is_dense()) << "at promote threshold switches to dense";

  // Drop into the hysteresis band (0.25, 0.5): representation must hold.
  for (Index i = 26; i < 50; ++i) v.remove_element(i);  // 26 left, d = 0.26
  ctx.manage_representation(v);
  EXPECT_TRUE(v.is_dense()) << "inside the band keeps the current form";

  v.remove_element(25);  // 25 left, density exactly 0.25
  ctx.manage_representation(v);
  EXPECT_FALSE(v.is_dense()) << "at demote threshold switches to sparse";

  // Climbing back through the band from below must also hold.
  for (Index i = 25; i < 49; ++i) v.set_element(i, 1.0);  // d = 0.49
  ctx.manage_representation(v);
  EXPECT_FALSE(v.is_dense()) << "inside the band keeps the current form";
}

TEST(Representation, AutoSwitchCanBeDisabled) {
  grb::Context ctx;
  ctx.auto_representation = false;
  auto v = random_vector(100, 1.0, 5);
  ctx.manage_representation(v);
  EXPECT_FALSE(v.is_dense());
}

TEST(Representation, OperationsAutoPromoteDenseOutputs) {
  grb::Context ctx;  // default policy
  auto u = random_vector(100, 0.9, 6);
  ASSERT_FALSE(u.is_dense());
  grb::Vector<double> w(100);
  grb::apply(ctx, w, grb::NoMask{}, grb::NoAccumulate{},
             grb::Identity<double>{}, u);
  EXPECT_TRUE(w.is_dense()) << "a 90%-dense result should be promoted";

  grb::Vector<double> sparse_out(100);
  auto tiny = random_vector(100, 0.05, 7);
  grb::apply(ctx, sparse_out, grb::NoMask{}, grb::NoAccumulate{},
             grb::Identity<double>{}, tiny);
  EXPECT_FALSE(sparse_out.is_dense()) << "a 5%-dense result stays sparse";
}

// ---------------------------------------------------------------------------
// Bit-identity of operations across representations.
//
// For every op we compute the result with all-sparse inputs and with
// all-dense inputs (and mixed where meaningful), across mask x complement x
// structure x replace x accum, with auto-switching ON — the representation
// of the output must never change its logical value.
// ---------------------------------------------------------------------------

struct OpCase {
  bool masked;
  bool complement;
  bool structure;
  bool replace;
  bool accum;
};

std::vector<OpCase> all_cases() {
  std::vector<OpCase> cases;
  for (bool masked : {false, true}) {
    for (bool complement : {false, true}) {
      for (bool structure : {false, true}) {
        for (bool replace : {false, true}) {
          for (bool accum : {false, true}) {
            if (!masked && (complement || structure)) continue;
            cases.push_back({masked, complement, structure, replace, accum});
          }
        }
      }
    }
  }
  return cases;
}

grb::Descriptor make_desc(const OpCase& c) {
  grb::Descriptor d;
  d.mask_complement = c.complement;
  d.mask_structure = c.structure;
  d.replace = c.replace;
  return d;
}

/// Runs `run(ctx, w, mask, desc)` twice — once with sparse inputs handed in,
/// once after the caller densified them — and compares.  The caller supplies
/// closures capturing the inputs in the desired representation; W is the
/// output's value type.
template <typename W = double, typename RunSparse, typename RunDense>
void check_bit_identity(const char* what, Index n, RunSparse&& run_sparse,
                        RunDense&& run_dense) {
  // Pre-existing output content.
  const grb::Vector<W> w0 = [&] {
    if constexpr (std::is_same_v<W, bool>) {
      return random_mask(n, 0.3, 99);
    } else {
      return random_vector(n, 0.3, 99);
    }
  }();
  auto mask = random_mask(n, 0.6, 100);
  auto mask_dense = mask;
  mask_dense.to_dense();

  for (const auto& c : all_cases()) {
    const auto desc = make_desc(c);
    grb::Context ctx_s, ctx_d;
    auto ws = w0;
    auto wd = w0;
    wd.to_dense();  // output representation must not matter either
    run_sparse(ctx_s, ws, mask, c, desc);
    run_dense(ctx_d, wd, mask_dense, c, desc);
    EXPECT_EQ(ws, wd) << what << " masked=" << c.masked
                      << " comp=" << c.complement << " struct=" << c.structure
                      << " replace=" << c.replace << " accum=" << c.accum;
  }
}

TEST(RepresentationParity, Apply) {
  const Index n = 150;
  auto u = random_vector(n, 0.7, 10);
  auto ud = u;
  ud.to_dense();
  auto go = [&](const auto& uu, auto op, auto accum) {
    return [&, uu, op, accum](grb::Context& ctx, auto& w,
                              const grb::Vector<bool>& m, const OpCase& c,
                              const grb::Descriptor& desc) {
      if (c.masked && c.accum) {
        grb::apply(ctx, w, m, accum, op, uu, desc);
      } else if (c.masked) {
        grb::apply(ctx, w, m, grb::NoAccumulate{}, op, uu, desc);
      } else if (c.accum) {
        grb::apply(ctx, w, grb::NoMask{}, accum, op, uu, desc);
      } else {
        grb::apply(ctx, w, grb::NoMask{}, grb::NoAccumulate{}, op, uu, desc);
      }
    };
  };
  auto op = [](double x) { return x + 1.5; };
  check_bit_identity("apply", n, go(u, op, grb::Plus<double>{}),
                     go(ud, op, grb::Plus<double>{}));
  // A bool output through the bucket filter (Fig. 2 line 35): the dense
  // replace-mode, no-accumulator cases hand the kernel stage to w.
  const grb::HalfOpenRangePredicate<double> range{2.0, 7.0};
  check_bit_identity<bool>("apply range", n,
                           go(u, range, grb::LogicalOr<bool>{}),
                           go(ud, range, grb::LogicalOr<bool>{}));
}

TEST(RepresentationParity, Select) {
  const Index n = 150;
  auto u = random_vector(n, 0.7, 11);
  auto ud = u;
  ud.to_dense();
  auto pred = [](double x, Index) { return x < 5.0; };
  auto go = [&](const auto& uu) {
    return [&, uu](grb::Context& ctx, grb::Vector<double>& w,
                   const grb::Vector<bool>& m, const OpCase& c,
                   const grb::Descriptor& desc) {
      if (c.masked && c.accum) {
        grb::select(ctx, w, m, grb::Plus<double>{}, pred, uu, desc);
      } else if (c.masked) {
        grb::select(ctx, w, m, grb::NoAccumulate{}, pred, uu, desc);
      } else if (c.accum) {
        grb::select(ctx, w, grb::NoMask{}, grb::Plus<double>{}, pred, uu,
                    desc);
      } else {
        grb::select(ctx, w, grb::NoMask{}, grb::NoAccumulate{}, pred, uu,
                    desc);
      }
    };
  };
  check_bit_identity("select", n, go(u), go(ud));
}

template <typename EwiseFn>
void ewise_parity(const char* what, EwiseFn ew) {
  const Index n = 150;
  auto u = random_vector(n, 0.6, 12);
  auto v = random_vector(n, 0.4, 13);
  // Sweep representation combinations: SS is the reference, SD/DS/DD must
  // all match it.
  for (int combo = 1; combo < 4; ++combo) {
    auto uu = u;
    auto vv = v;
    if (combo & 1) uu.to_dense();
    if (combo & 2) vv.to_dense();
    auto go = [&](const auto& a, const auto& b) {
      return [&, a, b](grb::Context& ctx, grb::Vector<double>& w,
                       const grb::Vector<bool>& m, const OpCase& c,
                       const grb::Descriptor& desc) {
        ew(ctx, w, m, c, desc, a, b);
      };
    };
    check_bit_identity(what, n, go(u, v), go(uu, vv));
  }
}

TEST(RepresentationParity, EwiseAdd) {
  // Min, and the non-commutative Minus, so that a side swapped in the dense
  // kernel's both / u-only / v-only word split shows.
  const auto with = [](auto op) {
    return [op](grb::Context& ctx, grb::Vector<double>& w,
                const grb::Vector<bool>& m, const OpCase& c,
                const grb::Descriptor& desc, const auto& a, const auto& b) {
      if (c.masked && c.accum) {
        grb::ewise_add(ctx, w, m, grb::Plus<double>{}, op, a, b, desc);
      } else if (c.masked) {
        grb::ewise_add(ctx, w, m, grb::NoAccumulate{}, op, a, b, desc);
      } else if (c.accum) {
        grb::ewise_add(ctx, w, grb::NoMask{}, grb::Plus<double>{}, op, a, b,
                       desc);
      } else {
        grb::ewise_add(ctx, w, grb::NoMask{}, grb::NoAccumulate{}, op, a, b,
                       desc);
      }
    };
  };
  ewise_parity("ewise_add min", with(grb::Min<double>{}));
  ewise_parity("ewise_add minus", with(grb::Minus<double>{}));
}

TEST(RepresentationParity, EwiseMult) {
  ewise_parity("ewise_mult", [](grb::Context& ctx, grb::Vector<double>& w,
                                const grb::Vector<bool>& m, const OpCase& c,
                                const grb::Descriptor& desc, const auto& a,
                                const auto& b) {
    auto op = grb::Times<double>{};
    if (c.masked && c.accum) {
      grb::ewise_mult(ctx, w, m, grb::Plus<double>{}, op, a, b, desc);
    } else if (c.masked) {
      grb::ewise_mult(ctx, w, m, grb::NoAccumulate{}, op, a, b, desc);
    } else if (c.accum) {
      grb::ewise_mult(ctx, w, grb::NoMask{}, grb::Plus<double>{}, op, a, b,
                      desc);
    } else {
      grb::ewise_mult(ctx, w, grb::NoMask{}, grb::NoAccumulate{}, op, a, b,
                      desc);
    }
  });
}

TEST(RepresentationParity, VxmAndMxvWithDenseInputsAndMasks) {
  const Index n = 60;
  std::mt19937_64 rng(14);
  std::uniform_int_distribution<Index> pick(0, n - 1);
  std::uniform_real_distribution<double> wd(0.5, 2.0);
  std::vector<Index> r, c;
  std::vector<double> vals;
  for (int k = 0; k < 400; ++k) {
    r.push_back(pick(rng));
    c.push_back(pick(rng));
    vals.push_back(wd(rng));
  }
  auto a = grb::Matrix<double>::build(n, n, r, c, vals, grb::Min<double>{});
  const auto sr = grb::min_plus_semiring<double>();

  auto u = random_vector(n, 0.8, 15);
  auto ud = u;
  ud.to_dense();
  auto mask = random_mask(n, 0.5, 16);
  auto mask_dense = mask;
  mask_dense.to_dense();

  for (bool complement : {false, true}) {
    grb::Descriptor desc;
    desc.mask_complement = complement;
    desc.replace = true;

    grb::Context ctx;
    grb::Vector<double> w1(n), w2(n), w3(n), w4(n);
    grb::vxm(ctx, w1, mask, grb::NoAccumulate{}, sr, u, a, desc);
    grb::vxm(ctx, w2, mask_dense, grb::NoAccumulate{}, sr, ud, a, desc);
    EXPECT_EQ(w1, w2) << "vxm complement=" << complement;

    grb::mxv(ctx, w3, mask, grb::NoAccumulate{}, sr, a, u, desc);
    grb::mxv(ctx, w4, mask_dense, grb::NoAccumulate{}, sr, a, ud, desc);
    EXPECT_EQ(w3, w4) << "mxv complement=" << complement;
  }
}

TEST(RepresentationParity, InPlaceDenseRelaxationMatchesSparse) {
  // t = min(t, tReq) with w aliasing u — the delta-stepping hot path.
  const Index n = 300;
  auto t = random_vector(n, 0.8, 17);
  auto treq = random_vector(n, 0.05, 18);

  auto t_sparse = t;
  grb::Context ctx;
  grb::ewise_add(ctx, t_sparse, grb::NoMask{}, grb::NoAccumulate{},
                 grb::Min<double>{}, t_sparse, treq);

  auto t_dense = t;
  t_dense.to_dense();
  auto treq_d = treq;  // sparse request vector, as in the algorithm
  grb::Context ctx2;
  grb::ewise_add(ctx2, t_dense, grb::NoMask{}, grb::NoAccumulate{},
                 grb::Min<double>{}, t_dense, treq_d);
  EXPECT_TRUE(t_dense.is_dense()) << "in-place path must keep t dense";
  EXPECT_EQ(t_sparse, t_dense);

  // And with a dense request vector.
  auto t_dense2 = t;
  t_dense2.to_dense();
  treq_d.to_dense();
  grb::Context ctx3;
  grb::ewise_add(ctx3, t_dense2, grb::NoMask{}, grb::NoAccumulate{},
                 grb::Min<double>{}, t_dense2, treq_d);
  EXPECT_EQ(t_sparse, t_dense2);
}

TEST(RepresentationParity, ReduceAssignOverDense) {
  const Index n = 80;
  auto u = random_vector(n, 0.7, 19);
  auto ud = u;
  ud.to_dense();

  auto monoid = grb::plus_monoid<double>();
  EXPECT_DOUBLE_EQ(grb::reduce(monoid, u), grb::reduce(monoid, ud));

  // w<m> = 2.5 with w and the mask each in both representations: the
  // sparse mask drives the kernel, the dense one takes the word sweep.
  const auto w = random_vector(n, 0.5, 20);
  auto m = random_vector(n, 0.2, 21);
  auto md = m;
  md.to_dense();
  auto want = w;
  grb::Context ctx;
  grb::assign_scalar(ctx, want, m, 2.5);
  for (const bool w_dense : {false, true}) {
    for (const auto* mask : {&m, &md}) {
      auto got = w;
      if (w_dense) got.to_dense();
      grb::assign_scalar(ctx, got, *mask, 2.5);
      EXPECT_EQ(got, want) << "w_dense=" << w_dense
                           << " mask_dense=" << mask->is_dense();
    }
  }
}

TEST(RepresentationParity, DenseStageMatchesCompaction) {
  // The dense-output heuristic is pinned to each of its two paths in turn:
  // crossover 0 forces the word-packed dense stage, 1 forces the compaction
  // kernel, so the sampling estimator never decides what this test covers.
  // Every dense-input result is checked against the same op on sparse
  // copies, and the two paths are pinned against each other at the end.
  const Index n = 5000;
  const auto su = random_vector(n, 0.8, 30);
  const auto sv = random_vector(n, 0.7, 31);
  const auto smask = random_mask(n, 0.5, 32);
  auto u = su;
  auto v = sv;
  auto mask = smask;
  u.to_dense();
  v.to_dense();
  mask.to_dense();

  auto op = [](double x) { return x * 2.0; };
  auto pred = [](double x, Index) { return x < 5.0; };

  grb::Context plain;
  grb::Vector<double> apply_ref(n), select_ref(n), add_ref(n), mult_ref(n);
  grb::apply(plain, apply_ref, smask, grb::NoAccumulate{}, op, su,
             grb::replace_desc);
  grb::select(plain, select_ref, grb::NoMask{}, grb::NoAccumulate{}, pred,
              su);
  grb::ewise_add(plain, add_ref, grb::NoMask{}, grb::NoAccumulate{},
                 grb::Min<double>{}, su, sv);
  grb::ewise_mult(plain, mult_ref, grb::NoMask{}, grb::NoAccumulate{},
                  grb::Times<double>{}, su, sv);

  grb::Vector<double> apply_by_crossover[2]{grb::Vector<double>(n),
                                            grb::Vector<double>(n)};
  grb::Vector<double> select_by_crossover[2]{grb::Vector<double>(n),
                                             grb::Vector<double>(n)};
  int leg = 0;
  for (double crossover : {0.0, 1.0}) {
    SCOPED_TRACE("crossover=" + std::to_string(crossover));
    grb::Context ctx;
    ctx.dense_output_crossover = crossover;

    auto& w = apply_by_crossover[leg];
    grb::apply(ctx, w, mask, grb::NoAccumulate{}, op, u, grb::replace_desc);
    EXPECT_EQ(w, apply_ref);

    auto& s = select_by_crossover[leg];
    grb::select(ctx, s, grb::NoMask{}, grb::NoAccumulate{}, pred, u);
    EXPECT_EQ(s, select_ref);

    grb::Vector<double> a(n), m(n);
    grb::ewise_add(ctx, a, grb::NoMask{}, grb::NoAccumulate{},
                   grb::Min<double>{}, u, v);
    EXPECT_EQ(a, add_ref);
    grb::ewise_mult(ctx, m, grb::NoMask{}, grb::NoAccumulate{},
                    grb::Times<double>{}, u, v);
    EXPECT_EQ(m, mult_ref);
    ++leg;
  }
  // Dense stage (crossover 0) and compaction (crossover 1) are the same
  // logical operation: outputs must match exactly.
  expect_identical(apply_by_crossover[0], apply_by_crossover[1]);
  expect_identical(select_by_crossover[0], select_by_crossover[1]);
}

TEST(RepresentationParity, MixedEwiseAddMatchesSparse) {
  // The mixed dense/sparse union merge assembles the sparse operand's
  // presence words from its sorted entries: pin it against the all-sparse
  // reference in both operand orders.
  const Index n = 5000;
  auto dense_side = random_vector(n, 0.8, 35);
  auto sparse_side = random_vector(n, 0.1, 36);
  auto ref_u = dense_side;
  auto ref_v = sparse_side;
  dense_side.to_dense();

  grb::Context ctx;
  grb::Vector<double> r(n);
  grb::ewise_add(ctx, r, grb::NoMask{}, grb::NoAccumulate{},
                 grb::Min<double>{}, ref_u, ref_v);
  for (bool dense_first : {true, false}) {
    grb::Vector<double> w(n);
    if (dense_first) {
      grb::ewise_add(ctx, w, grb::NoMask{}, grb::NoAccumulate{},
                     grb::Min<double>{}, dense_side, sparse_side);
    } else {
      grb::ewise_add(ctx, w, grb::NoMask{}, grb::NoAccumulate{},
                     grb::Min<double>{}, sparse_side, dense_side);
    }
    EXPECT_EQ(w, r) << "mixed merge disagrees with the sparse reference"
                    << " (dense_first=" << dense_first << ")";
  }
}

TEST(Representation, AdoptedStageIsReusedWithoutTouchingTheFirstOutput) {
  // Adoption swaps buffers: w takes the kernel stage, the stage takes w's
  // previous dense buffers.  A second op through the same Context must
  // write into those inherited buffers and leave the first output intact.
  const Index n = 1000;
  auto u = random_vector(n, 0.8, 42);
  auto v = random_vector(n, 0.8, 43);
  u.to_dense();
  v.to_dense();
  auto mask = random_mask(n, 0.9, 44);
  mask.to_dense();
  grb::Context ctx;
  ctx.dense_output_crossover = 0.0;  // always stage dense
  auto w1 = random_vector(n, 0.6, 45);
  w1.to_dense();
  const double* w1_previous = w1.dense_values().data();

  grb::apply(ctx, w1, mask, grb::NoAccumulate{}, grb::Identity<double>{}, u,
             grb::replace_desc);
  ASSERT_TRUE(w1.is_dense());
  EXPECT_NE(w1.dense_values().data(), w1_previous) << "w1 adopted the stage";
  const auto w1_copy = w1;

  grb::Vector<double> w2(n);
  grb::apply(ctx, w2, mask, grb::NoAccumulate{}, grb::Identity<double>{}, v,
             grb::replace_desc);
  ASSERT_TRUE(w2.is_dense());
  EXPECT_EQ(w2.dense_values().data(), w1_previous)
      << "the second op staged into the buffers w1 handed back";
  expect_identical(w1, w1_copy);

  grb::Context sparse_ctx;
  auto us = u;
  auto vs = v;
  auto ms = mask;
  us.to_sparse();
  vs.to_sparse();
  ms.to_sparse();
  grb::Vector<double> r1(n), r2(n);
  grb::apply(sparse_ctx, r1, ms, grb::NoAccumulate{}, grb::Identity<double>{},
             us, grb::replace_desc);
  grb::apply(sparse_ctx, r2, ms, grb::NoAccumulate{}, grb::Identity<double>{},
             vs, grb::replace_desc);
  expect_identical(w1, r1);
  expect_identical(w2, r2);
}

TEST(RepresentationParity, SideSplitUnionMatchesSparseMerge) {
  // The dense union kernel splits each word into both / u-only / v-only
  // lanes; RepresentationParity.EwiseAdd sweeps it over non-empty operands.
  // Here: the in-place path (w aliasing u) for every pairing of empty,
  // sparse and dense operands, and the out-of-place kernel with an empty
  // side.  Minus is non-commutative, so a swapped side shows.
  const Index n = 1000;
  const auto make = [&](int kind, std::uint64_t seed) {
    // 0: empty sparse, 1: empty dense, 2: sparse, 3: dense.
    auto x = kind < 2 ? grb::Vector<double>(n) : random_vector(n, 0.5, seed);
    if (kind % 2 == 1) x.to_dense();
    return x;
  };
  const grb::Minus<double> op;
  for (int uk = 0; uk < 4; ++uk) {
    for (int vk = 0; vk < 4; ++vk) {
      const std::string where =
          "u kind " + std::to_string(uk) + ", v kind " + std::to_string(vk);
      const auto u = make(uk, 50);
      const auto v = make(vk, 51);
      auto us = u;
      auto vs = v;
      us.to_sparse();
      vs.to_sparse();
      grb::Context ctx, ref_ctx;
      grb::Vector<double> want(n);
      grb::ewise_add(ref_ctx, want, grb::NoMask{}, grb::NoAccumulate{}, op,
                     us, vs);
      if (uk < 2 || vk < 2) {
        grb::Vector<double> got(n);
        grb::ewise_add(ctx, got, grb::NoMask{}, grb::NoAccumulate{}, op, u,
                       v);
        EXPECT_EQ(got, want) << where;
      }

      // In place, w aliasing u (dense when u is).
      auto w = u;
      grb::ewise_add(ctx, w, grb::NoMask{}, grb::NoAccumulate{}, op, w, v);
      EXPECT_EQ(w, want) << where << " in place";
    }
  }

  // s = s ∨ tB_i at bucket start: an empty s, a dense bool filter with
  // stored falses and a stored byte of 2.  The union normalizes to 0/1.
  auto tb = random_mask(n, 0.7, 52);
  tb.to_dense();
  for (Index i = 0; i < n; i += 7) {
    if (tb.dense_values()[i] != 0) tb.mutable_dense_values()[i] = 2;
  }
  auto tb_sparse = tb;
  tb_sparse.to_sparse();
  grb::Context ctx, ref_ctx;
  grb::Vector<bool> s(n), ref(n);
  grb::ewise_add(ctx, s, grb::NoMask{}, grb::NoAccumulate{},
                 grb::LogicalOr<bool>{}, s, tb);
  grb::ewise_add(ref_ctx, ref, grb::NoMask{}, grb::NoAccumulate{},
                 grb::LogicalOr<bool>{}, ref, tb_sparse);
  expect_identical(s, ref);
  s.to_dense();
  for (Index i = 0; i < n; ++i) {
    if (s.has_element(i)) {
      EXPECT_LE(s.dense_values()[i], 1) << "at " << i;
    }
  }
  // And in place, s dense: a second union scatters the filter again.
  grb::ewise_add(ctx, s, grb::NoMask{}, grb::NoAccumulate{},
                 grb::LogicalOr<bool>{}, s, tb);
  expect_identical(s, ref);
}

TEST(Representation, FullVectorFollowsContextPolicy) {
  // Vector::full defaults to dense, but full_vector routes the choice
  // through the Context: a pinned-sparse Context must get the sparse form,
  // or the "representation off" benchmark leg silently runs dense kernels.
  grb::Context on, off;
  off.auto_representation = false;

  auto a = grb::full_vector(on, Index{100}, 1.5);
  EXPECT_TRUE(a.is_dense());
  auto b = grb::full_vector(off, Index{100}, 1.5);
  EXPECT_FALSE(b.is_dense());
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.nvals(), 100u);

  auto c = grb::Vector<double>::full(100, 1.5, grb::StorageKind::kSparse);
  EXPECT_FALSE(c.is_dense());
  expect_identical(b, c);

  // Ops over the policy-built vector keep the off context sparse end to
  // end: no write phase installs a dense result.
  grb::Vector<double> w(100);
  grb::apply(off, w, grb::NoMask{}, grb::NoAccumulate{},
             grb::Identity<double>{}, b);
  EXPECT_EQ(off.dense_writes, 0u);
  EXPECT_FALSE(w.is_dense());
}

TEST(Representation, AutoOffSsspLegStaysSparseThroughout) {
  // Regression pin for the bench_solver_batch representation on/off record:
  // the "off" leg (auto_representation = false, nothing explicitly
  // densified) must never run a dense write phase, while the "on" leg on
  // the same plan must — otherwise the two rows measure the same thing.
  const Index n = 64;
  std::mt19937_64 rng(22);
  std::uniform_int_distribution<Index> pick(0, n - 1);
  std::uniform_real_distribution<double> wd(0.5, 2.0);
  std::vector<Index> r, c;
  std::vector<double> vals;
  for (int k = 0; k < 500; ++k) {
    r.push_back(pick(rng));
    c.push_back(pick(rng));
    vals.push_back(wd(rng));
  }
  auto a = grb::Matrix<double>::build(n, n, r, c, vals, grb::Min<double>{});
  const dsg::GraphPlan plan(grb::Matrix<double>(a), 1.0);
  dsg::ExecOptions exec;

  grb::Context ctx_off;
  ctx_off.auto_representation = false;
  const auto off = dsg::delta_stepping_graphblas(plan, ctx_off, 0, exec);
  EXPECT_EQ(ctx_off.dense_writes, 0u)
      << "the pinned-sparse leg ran dense kernels";

  grb::Context ctx_on;
  const auto on = dsg::delta_stepping_graphblas(plan, ctx_on, 0, exec);
  EXPECT_GT(ctx_on.dense_writes, 0u)
      << "the auto leg never went dense — the record compares nothing";
  EXPECT_EQ(off.dist, on.dist);
}

TEST(RepresentationParity, SsspEndToEndWithAutoSwitching) {
  // The full algorithm over the substrate, sparse seed vs pre-densified
  // Context policy: distances must be identical (pinned elsewhere against
  // Dijkstra; here we pin graphblas-variant determinism under switching).
  const Index n = 64;
  std::mt19937_64 rng(21);
  std::uniform_int_distribution<Index> pick(0, n - 1);
  std::uniform_real_distribution<double> wd(0.5, 2.0);
  std::vector<Index> r, c;
  std::vector<double> vals;
  for (int k = 0; k < 500; ++k) {
    r.push_back(pick(rng));
    c.push_back(pick(rng));
    vals.push_back(wd(rng));
  }
  auto a = grb::Matrix<double>::build(n, n, r, c, vals, grb::Min<double>{});

  const dsg::GraphPlan plan(grb::Matrix<double>(a), 1.0);
  auto res = dsg::delta_stepping_graphblas(plan, grb::default_context(), 0);
  auto ref = dsg::dijkstra(a, 0);
  ASSERT_EQ(res.dist.size(), ref.dist.size());
  for (std::size_t i = 0; i < ref.dist.size(); ++i) {
    EXPECT_DOUBLE_EQ(res.dist[i], ref.dist[i]) << "vertex " << i;
  }
}

TEST(KernelPath, Fig2LoopRunsMaskDrivenKernels) {
  // Regression pin for the mask-driven dispatch: the inner loop's masks
  // tless<treq> and t<tB_i> (Fig. 2 line 54) are sparse and hold far fewer
  // entries than t once t has spread, so the unfused graphblas core must
  // take the mask-driven kernels — a dispatch regression fails here, not
  // only in a benchmark — and still return Dijkstra's and fused's
  // distances exactly.  The bucket-start t<tB_i> (line 37), the heavy
  // phase's t<s> (line 58) and tcomp<tgeq> store a bool at every position
  // of t, so they are dense value masks and take the word-packed kernels.
  dsg::RmatParams params;
  params.scale = 10;
  params.seed = 7;
  auto edges = dsg::generate_rmat(params);
  edges.symmetrize();
  edges.normalize();
  dsg::assign_integer_weights(edges, 1, 100, 7);
  const dsg::GraphPlan plan(edges.to_matrix());
  const dsg::ExecOptions exec;
  using dsg::sssp::Algorithm;
  using dsg::sssp::algorithm_info;
  for (const Index source : {Index{0}, Index{17}, Index{513}}) {
    grb::Context ctx;
    const auto got =
        algorithm_info(Algorithm::kGraphblas).run(plan, ctx, source, exec);
    EXPECT_GT(ctx.mask_driven_calls, 0u) << "source " << source;
    grb::Context other;
    EXPECT_EQ(got.dist,
              algorithm_info(Algorithm::kDijkstra).run(plan, other, source,
                                                       exec).dist)
        << "source " << source;
    EXPECT_EQ(got.dist,
              algorithm_info(Algorithm::kFused).run(plan, other, source,
                                                    exec).dist)
        << "source " << source;
  }

  // A vertex count that is not a multiple of 64: the dense masks' last
  // word is partial, so the bulk probes mix packed and per-lane words.
  auto ragged = dsg::generate_connected_random(1000, 4000, 9);
  ragged.symmetrize();
  ragged.normalize();
  dsg::assign_integer_weights(ragged, 1, 100, 9);
  const dsg::GraphPlan ragged_plan(ragged.to_matrix());
  ASSERT_NE(ragged_plan.num_vertices() % 64, 0u);
  for (const Index source : {Index{0}, Index{333}, Index{999}}) {
    grb::Context ctx, other;
    EXPECT_EQ(algorithm_info(Algorithm::kGraphblas)
                  .run(ragged_plan, ctx, source, exec)
                  .dist,
              algorithm_info(Algorithm::kDijkstra)
                  .run(ragged_plan, other, source, exec)
                  .dist)
        << "n=1000, source " << source;
    EXPECT_GT(ctx.dense_writes, 0u) << "the loop never went dense";
  }
}

}  // namespace
