// Exhaustive semantics tests for the workspace-reusing, mask-fused SpMSpV
// engine: vxm / mxv checked against a brute-force dense reference across
// every mask x complement x structure x replace x accum combination, plus
// workspace-reuse (one grb::Context across many differently-shaped calls)
// and the cached transpose.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "graphblas/graphblas.hpp"

namespace {

using grb::Index;

// ---------------------------------------------------------------------------
// Brute-force dense model of a vector with explicit presence.
// ---------------------------------------------------------------------------

struct DenseVec {
  std::vector<bool> has;
  std::vector<double> val;

  explicit DenseVec(Index n) : has(n, false), val(n, 0.0) {}

  static DenseVec from(const grb::Vector<double>& v) {
    DenseVec d(v.size());
    v.for_each([&](Index i, const double& x) {
      d.has[i] = true;
      d.val[i] = x;
    });
    return d;
  }
};

void expect_matches(const grb::Vector<double>& got, const DenseVec& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.has.size()) << label;
  for (Index i = 0; i < got.size(); ++i) {
    auto v = got.extract_element(i);
    EXPECT_EQ(v.has_value(), static_cast<bool>(want.has[i]))
        << label << " presence at " << i;
    if (v && want.has[i]) {
      EXPECT_DOUBLE_EQ(*v, want.val[i]) << label << " value at " << i;
    }
  }
}

/// Reference z = uT A over (min,+), dense, with explicit presence.
DenseVec ref_vxm_minplus(const grb::Vector<double>& u,
                         const grb::Matrix<double>& a) {
  DenseVec z(a.ncols());
  u.for_each([&](Index i, const double& ux) {
    auto cols = a.row_indices(i);
    auto vals = a.row_values(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const double p = ux + static_cast<double>(vals[k]);
      const Index j = cols[k];
      if (!z.has[j] || p < z.val[j]) {
        z.has[j] = true;
        z.val[j] = p;
      }
    }
  });
  return z;
}

/// Reference z = A u over (min,+), dense.
DenseVec ref_mxv_minplus(const grb::Matrix<double>& a,
                         const grb::Vector<double>& u) {
  DenseVec z(a.nrows());
  a.for_each([&](Index r, Index c, const double& w) {
    auto uv = u.extract_element(c);
    if (!uv) return;
    const double p = w + *uv;
    if (!z.has[r] || p < z.val[r]) {
      z.has[r] = true;
      z.val[r] = p;
    }
  });
  return z;
}

enum class MaskKind { kNone, kBool, kDouble };

/// Reference write phase per the GraphBLAS rule (see mask.hpp):
///   mask true at i  -> w[i] = accum ? combine(w, z) : z   (absent if absent)
///   mask false at i -> w[i] kept, or deleted when replace
template <typename MaskVec>
DenseVec ref_write(const DenseVec& w0, const DenseVec& z, const MaskVec* mask,
                   bool complement, bool structure, bool replace,
                   bool min_accum) {
  const Index n = w0.has.size();
  DenseVec out(n);
  for (Index i = 0; i < n; ++i) {
    bool m;
    if (mask == nullptr) {
      m = true;
    } else {
      auto v = mask->extract_element(i);
      m = structure ? v.has_value() : (v.has_value() && *v != 0);
    }
    if (complement) m = !m;

    if (m) {
      if (min_accum) {
        if (w0.has[i] && z.has[i]) {
          out.has[i] = true;
          out.val[i] = std::min(w0.val[i], z.val[i]);
        } else if (z.has[i]) {
          out.has[i] = true;
          out.val[i] = z.val[i];
        } else if (w0.has[i]) {
          out.has[i] = true;
          out.val[i] = w0.val[i];
        }
      } else if (z.has[i]) {
        out.has[i] = true;
        out.val[i] = z.val[i];
      }
    } else if (!replace && w0.has[i]) {
      out.has[i] = true;
      out.val[i] = w0.val[i];
    }
  }
  return out;
}

// Small weighted digraph exercising fan-in, fan-out and isolated columns.
grb::Matrix<double> graph8() {
  const std::vector<Index> r{0, 0, 1, 1, 2, 3, 3, 4, 5, 6, 6};
  const std::vector<Index> c{1, 3, 2, 4, 4, 1, 5, 6, 6, 0, 7};
  const std::vector<double> v{2, 7, 1, 9, 3, 4, 2, 1, 5, 8, 6};
  return grb::Matrix<double>::build(8, 8, r, c, v);
}

grb::Vector<double> frontier8() {
  grb::Vector<double> u(8);
  u.set_element(0, 0.0);
  u.set_element(1, 2.0);
  u.set_element(3, 1.5);
  return u;
}

grb::Vector<double> preloaded_w8() {
  grb::Vector<double> w(8);
  w.set_element(1, 0.5);
  w.set_element(4, 100.0);
  w.set_element(7, -3.0);
  return w;
}

// Bool mask: entries at {1, 2, 4, 6}, with 2 stored-but-false.
grb::Vector<bool> bool_mask8() {
  grb::Vector<bool> m(8);
  m.set_element(1, true);
  m.set_element(2, false);
  m.set_element(4, true);
  m.set_element(6, true);
  return m;
}

// Dense double mask (every position stored, some zero) — exercises the
// O(1) dense-probe fast path.
grb::Vector<double> dense_mask8() {
  grb::Vector<double> m(8);
  for (Index i = 0; i < 8; ++i) m.set_element(i, (i % 3 == 0) ? 0.0 : 1.0);
  return m;
}

struct Combo {
  MaskKind mask;
  bool complement;
  bool structure;
  bool replace;
  bool accum;
};

std::vector<Combo> all_combos() {
  std::vector<Combo> out;
  for (MaskKind mk : {MaskKind::kNone, MaskKind::kBool, MaskKind::kDouble}) {
    for (bool comp : {false, true}) {
      for (bool str : {false, true}) {
        for (bool rep : {false, true}) {
          for (bool acc : {false, true}) {
            out.push_back({mk, comp, str, rep, acc});
          }
        }
      }
    }
  }
  return out;
}

std::string combo_name(const Combo& c) {
  std::string s;
  s += c.mask == MaskKind::kNone ? "nomask"
       : c.mask == MaskKind::kBool ? "bool" : "dense";
  if (c.complement) s += "+comp";
  if (c.structure) s += "+struct";
  if (c.replace) s += "+replace";
  if (c.accum) s += "+accum";
  return s;
}

grb::Descriptor make_desc(const Combo& c) {
  grb::Descriptor d;
  d.mask_complement = c.complement;
  d.mask_structure = c.structure;
  d.replace = c.replace;
  return d;
}

/// Runs one op for every combo, comparing against the dense reference.
/// `run(w, mask_ptr_bool, mask_ptr_double, desc, accum?)` is abstracted via
/// two lambdas (no-accum and min-accum variants).
template <typename RunNoAcc, typename RunMinAcc>
void check_all_combos(const DenseVec& zref, const grb::Vector<double>& w0,
                      RunNoAcc&& run_noacc, RunMinAcc&& run_minacc) {
  const auto bm = bool_mask8();
  const auto dm = dense_mask8();
  for (const Combo& c : all_combos()) {
    grb::Vector<double> w = w0;
    const grb::Descriptor desc = make_desc(c);
    DenseVec want(0);
    switch (c.mask) {
      case MaskKind::kNone:
        want = ref_write<grb::Vector<bool>>(DenseVec::from(w0), zref, nullptr,
                                            c.complement, c.structure,
                                            c.replace, c.accum);
        break;
      case MaskKind::kBool:
        want = ref_write(DenseVec::from(w0), zref, &bm, c.complement,
                         c.structure, c.replace, c.accum);
        break;
      case MaskKind::kDouble:
        want = ref_write(DenseVec::from(w0), zref, &dm, c.complement,
                         c.structure, c.replace, c.accum);
        break;
    }
    if (c.accum) {
      run_minacc(w, c.mask, desc);
    } else {
      run_noacc(w, c.mask, desc);
    }
    expect_matches(w, want, combo_name(c));
  }
}

TEST(VxmReference, AllMaskCombosMatchDenseReference) {
  const auto a = graph8();
  const auto u = frontier8();
  const auto w0 = preloaded_w8();
  const auto zref = ref_vxm_minplus(u, a);
  const auto sr = grb::min_plus_semiring<double>();
  const auto bm = bool_mask8();
  const auto dm = dense_mask8();

  check_all_combos(
      zref, w0,
      [&](grb::Vector<double>& w, MaskKind mk, const grb::Descriptor& d) {
        switch (mk) {
          case MaskKind::kNone:
            grb::vxm(w, grb::NoMask{}, grb::NoAccumulate{}, sr, u, a, d);
            break;
          case MaskKind::kBool:
            grb::vxm(w, bm, grb::NoAccumulate{}, sr, u, a, d);
            break;
          case MaskKind::kDouble:
            grb::vxm(w, dm, grb::NoAccumulate{}, sr, u, a, d);
            break;
        }
      },
      [&](grb::Vector<double>& w, MaskKind mk, const grb::Descriptor& d) {
        switch (mk) {
          case MaskKind::kNone:
            grb::vxm(w, grb::NoMask{}, grb::Min<double>{}, sr, u, a, d);
            break;
          case MaskKind::kBool:
            grb::vxm(w, bm, grb::Min<double>{}, sr, u, a, d);
            break;
          case MaskKind::kDouble:
            grb::vxm(w, dm, grb::Min<double>{}, sr, u, a, d);
            break;
        }
      });
}

TEST(MxvReference, AllMaskCombosMatchDenseReference) {
  const auto a = graph8();
  const auto u = frontier8();
  const auto w0 = preloaded_w8();
  const auto zref = ref_mxv_minplus(a, u);
  const auto sr = grb::min_plus_semiring<double>();
  const auto bm = bool_mask8();
  const auto dm = dense_mask8();

  check_all_combos(
      zref, w0,
      [&](grb::Vector<double>& w, MaskKind mk, const grb::Descriptor& d) {
        switch (mk) {
          case MaskKind::kNone:
            grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{}, sr, a, u, d);
            break;
          case MaskKind::kBool:
            grb::mxv(w, bm, grb::NoAccumulate{}, sr, a, u, d);
            break;
          case MaskKind::kDouble:
            grb::mxv(w, dm, grb::NoAccumulate{}, sr, a, u, d);
            break;
        }
      },
      [&](grb::Vector<double>& w, MaskKind mk, const grb::Descriptor& d) {
        switch (mk) {
          case MaskKind::kNone:
            grb::mxv(w, grb::NoMask{}, grb::Min<double>{}, sr, a, u, d);
            break;
          case MaskKind::kBool:
            grb::mxv(w, bm, grb::Min<double>{}, sr, a, u, d);
            break;
          case MaskKind::kDouble:
            grb::mxv(w, dm, grb::Min<double>{}, sr, a, u, d);
            break;
        }
      });
}

TEST(MxvReference, TransposeDescriptorMatchesVxmReference) {
  // mxv with transpose_in0 takes the push-kernel path: ATu == (uTA)T.
  const auto a = graph8();
  const auto u = frontier8();
  const auto w0 = preloaded_w8();
  const auto zref = ref_vxm_minplus(u, a);
  const auto sr = grb::min_plus_semiring<double>();
  const auto bm = bool_mask8();

  for (bool replace : {false, true}) {
    grb::Vector<double> w = w0;
    grb::Descriptor d;
    d.transpose_in0 = true;
    d.replace = replace;
    grb::mxv(w, bm, grb::NoAccumulate{}, sr, a, u, d);
    const auto want = ref_write(DenseVec::from(w0), zref, &bm, false, false,
                                replace, false);
    expect_matches(w, want, replace ? "mxv(T)+replace" : "mxv(T)");
  }
}

// ---------------------------------------------------------------------------
// Workspace reuse.
// ---------------------------------------------------------------------------

TEST(ContextWorkspace, RepeatedCallsMatchFreshContext) {
  // One Context carried across many calls of different shapes and
  // dimensions must produce exactly what fresh-context calls produce.
  const auto a8 = graph8();
  const auto u8 = frontier8();
  const auto sr = grb::min_plus_semiring<double>();
  const auto bm = bool_mask8();

  std::mt19937_64 rng(11);
  std::uniform_int_distribution<Index> pick(0, 99);
  std::vector<Index> r, c;
  std::vector<double> v;
  for (int k = 0; k < 600; ++k) {
    r.push_back(pick(rng));
    c.push_back(pick(rng));
    v.push_back(1.0 + static_cast<double>(k % 7));
  }
  const auto a100 =
      grb::Matrix<double>::build(100, 100, r, c, v, grb::Min<double>{});
  grb::Vector<double> u100(100);
  for (Index i = 0; i < 100; i += 9) u100.set_element(i, 0.25 * i);

  grb::Context shared;
  for (int round = 0; round < 3; ++round) {
    // Small masked vxm.
    grb::Vector<double> w_shared(8), w_fresh(8);
    grb::Context fresh1;
    grb::vxm(shared, w_shared, bm, grb::NoAccumulate{}, sr, u8, a8,
             grb::replace_desc);
    grb::vxm(fresh1, w_fresh, bm, grb::NoAccumulate{}, sr, u8, a8,
             grb::replace_desc);
    EXPECT_EQ(w_shared, w_fresh) << "round " << round;

    // Bigger unmasked vxm (different dimension through the same workspace).
    grb::Vector<double> x_shared(100), x_fresh(100);
    grb::Context fresh2;
    grb::vxm(shared, x_shared, sr, u100, a100);
    grb::vxm(fresh2, x_fresh, sr, u100, a100);
    EXPECT_EQ(x_shared, x_fresh) << "round " << round;

    // Interleave masked point-wise ops through the same Context.
    grb::Vector<double> y_shared(8), y_fresh(8);
    grb::Context fresh3;
    grb::apply(shared, y_shared, bm, grb::NoAccumulate{},
               grb::Identity<double>{}, w_shared, grb::replace_desc);
    grb::apply(fresh3, y_fresh, bm, grb::NoAccumulate{},
               grb::Identity<double>{}, w_fresh, grb::replace_desc);
    EXPECT_EQ(y_shared, y_fresh) << "round " << round;

    grb::Vector<double> m_shared(8), m_fresh(8);
    grb::Context fresh4;
    grb::ewise_add(shared, m_shared, grb::Min<double>{}, w_shared, y_shared);
    grb::ewise_add(fresh4, m_fresh, grb::Min<double>{}, w_fresh, y_fresh);
    EXPECT_EQ(m_shared, m_fresh) << "round " << round;
  }
}

TEST(ContextWorkspace, ReleaseKeepsContextUsable) {
  const auto a = graph8();
  const auto u = frontier8();
  const auto sr = grb::min_plus_semiring<double>();

  grb::Context ctx;
  grb::Vector<double> w1(8), w2(8);
  grb::vxm(ctx, w1, sr, u, a);
  ctx.release();
  grb::vxm(ctx, w2, sr, u, a);
  EXPECT_EQ(w1, w2);
}

TEST(ContextWorkspace, DefaultContextIsReusedByLegacySignatures) {
  // Same result through the implicit thread-local context, repeatedly.
  const auto a = graph8();
  const auto u = frontier8();
  const auto sr = grb::min_plus_semiring<double>();
  grb::Vector<double> first(8);
  grb::vxm(first, sr, u, a);
  for (int i = 0; i < 5; ++i) {
    grb::Vector<double> again(8);
    grb::vxm(again, sr, u, a);
    EXPECT_EQ(first, again);
  }
}

// ---------------------------------------------------------------------------
// Cached transpose.
// ---------------------------------------------------------------------------

TEST(TransposeCache, MatchesExplicitTransposeAndInvalidates) {
  auto a = graph8();
  EXPECT_EQ(a.transpose_cached(), a.transposed());
  // Second call returns the same object (cache hit).
  const grb::Matrix<double>* first = &a.transpose_cached();
  EXPECT_EQ(first, &a.transpose_cached());

  // Mutation invalidates: the cache must reflect the new element.
  a.set_element(7, 0, 42.0);
  EXPECT_EQ(a.transpose_cached(), a.transposed());
  EXPECT_DOUBLE_EQ(*a.transpose_cached().extract_element(0, 7), 42.0);

  a.remove_element(7, 0);
  EXPECT_EQ(a.transpose_cached(), a.transposed());
  EXPECT_FALSE(a.transpose_cached().has_element(0, 7));

  a.clear();
  EXPECT_EQ(a.transpose_cached().nvals(), 0u);
}

TEST(TransposeCache, CopiesInvalidateIndependently) {
  auto a = graph8();
  (void)a.transpose_cached();
  grb::Matrix<double> b = a;  // shares the snapshot
  b.set_element(0, 7, 9.0);   // must only invalidate b's cache
  EXPECT_EQ(a.transpose_cached(), a.transposed());
  EXPECT_EQ(b.transpose_cached(), b.transposed());
  EXPECT_DOUBLE_EQ(*b.transpose_cached().extract_element(7, 0), 9.0);
  EXPECT_FALSE(a.transpose_cached().has_element(7, 0));
}

TEST(TransposeCache, VxmWithTransposeDescriptorUsesCache) {
  const auto a = graph8();
  const auto u = frontier8();
  const auto sr = grb::min_plus_semiring<double>();
  grb::Descriptor d;
  d.transpose_in1 = true;

  grb::Vector<double> w1(8), w2(8), wref(8);
  grb::vxm(w1, grb::NoMask{}, grb::NoAccumulate{}, sr, u, a, d);
  grb::vxm(w2, grb::NoMask{}, grb::NoAccumulate{}, sr, u, a, d);  // cache hit
  grb::vxm(wref, grb::NoMask{}, grb::NoAccumulate{}, sr, u, a.transposed());
  EXPECT_EQ(w1, wref);
  EXPECT_EQ(w2, wref);
}

}  // namespace
