// Systematic property tests of the GraphBLAS write rule
//     C<M, desc> accum= T
// across the full flag cube {value/structural} x {plain/complement} x
// {merge/replace} x {no-accum/accum}, checked against an independent
// element-wise model of the standard semantics.  This is the machinery
// every operation shares, so these parameterized sweeps protect all of
// apply/ewise/vxm/mxv/select/assign at once.
// The same reference then checks the mask-driven point-wise kernels over
// random masks and operands in both storage representations.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "graphblas/graphblas.hpp"

namespace {

using grb::Index;

struct Flags {
  bool structural;
  bool complement;
  bool replace;
  bool accumulate;
};

std::string flags_name(const ::testing::TestParamInfo<Flags>& info) {
  const Flags& f = info.param;
  std::string s;
  s += f.structural ? "Struct" : "Value";
  s += f.complement ? "Comp" : "Plain";
  s += f.replace ? "Replace" : "Merge";
  s += f.accumulate ? "Accum" : "NoAccum";
  return s;
}

constexpr Index kN = 16;

/// Dense models: nullopt == structurally absent.
using Model = std::vector<std::optional<double>>;

Model old_output() {
  Model w(kN);
  for (Index i = 0; i < kN; i += 3) w[i] = 100.0 + static_cast<double>(i);
  return w;
}

Model computed_result() {
  Model t(kN);
  for (Index i = 0; i < kN; i += 2) t[i] = static_cast<double>(i);
  return t;
}

/// Mask with a mix of absent, stored-false and stored-true positions.
std::vector<std::optional<bool>> mask_model() {
  std::vector<std::optional<bool>> m(kN);
  for (Index i = 0; i < kN; ++i) {
    if (i % 4 == 1) continue;  // absent
    m[i] = (i % 4 != 2);       // stored false at i%4==2, true elsewhere
  }
  return m;
}

template <typename T>
grb::Vector<T> to_vector(const std::vector<std::optional<T>>& model) {
  grb::Vector<T> v(model.size());
  for (Index i = 0; i < model.size(); ++i) {
    if (model[i]) v.set_element(i, *model[i]);
  }
  return v;
}

/// The standard's write rule, evaluated independently per position.
Model expected_write(const Model& old, const Model& t,
                     const std::vector<std::optional<bool>>& mask,
                     const Flags& f) {
  Model out(old.size());
  for (Index i = 0; i < old.size(); ++i) {
    bool m = f.structural ? mask[i].has_value()
                          : (mask[i].has_value() && *mask[i]);
    if (f.complement) m = !m;
    // Z = accum ? (old ⊙ t) : t
    std::optional<double> z;
    if (f.accumulate) {
      if (old[i] && t[i]) {
        z = *old[i] + *t[i];
      } else if (old[i]) {
        z = old[i];
      } else {
        z = t[i];
      }
    } else {
      z = t[i];
    }
    if (m) {
      out[i] = z;
    } else {
      out[i] = f.replace ? std::nullopt : old[i];
    }
  }
  return out;
}

void expect_matches(const grb::Vector<double>& got, const Model& want,
                    const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (Index i = 0; i < want.size(); ++i) {
    auto g = got.extract_element(i);
    if (want[i]) {
      ASSERT_TRUE(g.has_value()) << context << ": missing element " << i;
      EXPECT_DOUBLE_EQ(*g, *want[i]) << context << " at " << i;
    } else {
      EXPECT_FALSE(g.has_value()) << context << ": spurious element " << i;
    }
  }
}

class MaskCube : public ::testing::TestWithParam<Flags> {};

// apply with Identity is the purest window onto the write rule: T == input.
TEST_P(MaskCube, ApplyFollowsTheStandardWriteRule) {
  const Flags f = GetParam();
  auto w = to_vector(old_output());
  const auto u = to_vector(computed_result());
  const auto mask = to_vector(mask_model());
  const grb::Descriptor desc{.replace = f.replace,
                             .mask_complement = f.complement,
                             .mask_structure = f.structural};
  if (f.accumulate) {
    grb::apply(w, mask, grb::Plus<double>{}, grb::Identity<double>{}, u,
               desc);
  } else {
    grb::apply(w, mask, grb::NoAccumulate{}, grb::Identity<double>{}, u,
               desc);
  }
  expect_matches(w, expected_write(old_output(), computed_result(),
                                   mask_model(), f),
                 flags_name({GetParam(), 0}));
}

// The same cube through ewise_mult with Second (T = u ∩ u == u).
TEST_P(MaskCube, EwiseMultSeesTheSameRule) {
  const Flags f = GetParam();
  auto w = to_vector(old_output());
  const auto u = to_vector(computed_result());
  const auto mask = to_vector(mask_model());
  const grb::Descriptor desc{.replace = f.replace,
                             .mask_complement = f.complement,
                             .mask_structure = f.structural};
  if (f.accumulate) {
    grb::ewise_mult(w, mask, grb::Plus<double>{}, grb::Second<double>{}, u,
                    u, desc);
  } else {
    grb::ewise_mult(w, mask, grb::NoAccumulate{}, grb::Second<double>{}, u,
                    u, desc);
  }
  expect_matches(w, expected_write(old_output(), computed_result(),
                                   mask_model(), f),
                 flags_name({GetParam(), 0}));
}

// And through the matrix path, via a 1-column matrix apply.
TEST_P(MaskCube, MatrixWritePhaseAgrees) {
  const Flags f = GetParam();
  grb::Matrix<double> w(kN, 1);
  for (Index i = 0; i < kN; ++i) {
    if (auto v = old_output()[i]) w.set_element(i, 0, *v);
  }
  grb::Matrix<double> u(kN, 1);
  for (Index i = 0; i < kN; ++i) {
    if (auto v = computed_result()[i]) u.set_element(i, 0, *v);
  }
  grb::Matrix<bool> mask(kN, 1);
  for (Index i = 0; i < kN; ++i) {
    if (auto v = mask_model()[i]) mask.set_element(i, 0, *v);
  }
  const grb::Descriptor desc{.replace = f.replace,
                             .mask_complement = f.complement,
                             .mask_structure = f.structural};
  if (f.accumulate) {
    grb::apply(w, mask, grb::Plus<double>{}, grb::Identity<double>{}, u,
               desc);
  } else {
    grb::apply(w, mask, grb::NoAccumulate{}, grb::Identity<double>{}, u,
               desc);
  }
  const auto want =
      expected_write(old_output(), computed_result(), mask_model(), f);
  for (Index i = 0; i < kN; ++i) {
    auto g = w.extract_element(i, 0);
    if (want[i]) {
      ASSERT_TRUE(g.has_value()) << "row " << i;
      EXPECT_DOUBLE_EQ(*g, *want[i]) << "row " << i;
    } else {
      EXPECT_FALSE(g.has_value()) << "row " << i;
    }
  }
}

std::vector<Flags> all_flag_combinations() {
  std::vector<Flags> out;
  for (bool structural : {false, true})
    for (bool complement : {false, true})
      for (bool replace : {false, true})
        for (bool accumulate : {false, true}) {
          out.push_back({structural, complement, replace, accumulate});
        }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllFlagCombos, MaskCube,
                         ::testing::ValuesIn(all_flag_combinations()),
                         flags_name);

// --- NoMask corner cases. ------------------------------------------------------

TEST(NoMaskSemantics, NoMaskNoAccumReplacesOutputEntirely) {
  auto w = to_vector(old_output());
  const auto u = to_vector(computed_result());
  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{}, grb::Identity<double>{},
             u);
  EXPECT_EQ(w.nvals(), u.nvals());
}

TEST(NoMaskSemantics, ComplementOfNoMaskWritesNothing) {
  auto w = to_vector(old_output());
  const auto before = w;
  const auto u = to_vector(computed_result());
  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{}, grb::Identity<double>{},
             u, grb::complement_mask_desc);
  EXPECT_EQ(w, before);  // nothing writable, merge keeps everything
}

TEST(NoMaskSemantics, ComplementOfNoMaskWithReplaceClears) {
  auto w = to_vector(old_output());
  const auto u = to_vector(computed_result());
  grb::apply(w, grb::NoMask{}, grb::NoAccumulate{}, grb::Identity<double>{},
             u,
             grb::Descriptor{.replace = true, .mask_complement = true});
  EXPECT_EQ(w.nvals(), 0u);
}

TEST(NoMaskSemantics, AccumWithoutMaskMergesUnion) {
  auto w = to_vector(old_output());
  const auto u = to_vector(computed_result());
  grb::apply(w, grb::NoMask{}, grb::Plus<double>{}, grb::Identity<double>{},
             u);
  // i=0 is in both models: accum(100, 0) = 100.
  EXPECT_DOUBLE_EQ(*w.extract_element(0), 100.0);
  // i=3 only in old: kept.  i=2 only in new: inserted.
  EXPECT_DOUBLE_EQ(*w.extract_element(3), 103.0);
  EXPECT_DOUBLE_EQ(*w.extract_element(2), 2.0);
}

// --- Bulk probe. --------------------------------------------------------------
//
// The dense kernels probe a vector mask 64 lanes at a time through
// writable_word: one load for a structural bitmap mask, one branch-free
// pack of the values for a full word of a one-byte value mask, one test
// per candidate lane otherwise.  At every candidate lane the word must
// agree with the point probe, in every storage mode, at sizes around the
// word edges, and for stored bytes other than 0 and 1.

/// Checks writable_word against the point probe at every candidate lane of
/// every word, under value/structural x plain/complement, for an all-lanes
/// and a random candidate word.
template <typename MaskT>
void expect_bulk_probe_matches_point(const grb::Vector<MaskT>& mask,
                                     const std::string& where) {
  using grb::detail::BitmapWord;
  const Index n = mask.size();
  std::mt19937_64 rng(n);
  for (const bool structural : {false, true}) {
    for (const bool complement : {false, true}) {
      const grb::Descriptor desc{.mask_complement = complement,
                                 .mask_structure = structural};
      const grb::detail::VectorMaskProbe<MaskT> probe(mask, desc);
      const std::size_t words = grb::detail::bitmap_words(n);
      for (std::size_t wd = 0; wd < words; ++wd) {
        const BitmapWord valid =
            wd + 1 == words ? grb::detail::bitmap_tail_mask(n)
                            : ~BitmapWord{0};
        for (const BitmapWord candidates : {valid, valid & rng()}) {
          const BitmapWord got = probe.writable_word(wd, candidates);
          for (Index b = 0; b < grb::detail::kBitmapWordBits; ++b) {
            if (((candidates >> b) & 1u) == 0) continue;
            const Index i = static_cast<Index>(wd) * 64 + b;
            EXPECT_EQ(((got >> b) & 1u) != 0, probe(i))
                << where << (structural ? " structural" : " value")
                << (complement ? " complement" : "") << " at " << i;
          }
        }
      }
    }
  }
}

TEST(BulkProbe, WritableWordMatchesPointProbe) {
  for (const Index n : {Index{1}, Index{63}, Index{64}, Index{65},
                        Index{130}, Index{1000}}) {
    std::mt19937_64 rng(n + 7);
    std::uniform_int_distribution<int> kind(0, 3);
    // Lanes absent, stored false, stored true, and stored true as byte 2.
    std::vector<int> lanes(n);
    for (auto& k : lanes) k = kind(rng);
    const std::string size = "n=" + std::to_string(n);

    // Bitmap mode: dense storage with absent lanes.
    grb::Vector<bool> bitmap(n);
    for (Index i = 0; i < n; ++i) {
      if (lanes[i] != 0) bitmap.set_element(i, lanes[i] != 1);
    }
    bitmap.to_dense();
    for (Index i = 0; i < n; ++i) {
      if (lanes[i] == 3) bitmap.mutable_dense_values()[i] = 2;
    }
    expect_bulk_probe_matches_point(bitmap, size + " bitmap");

    // All-stored mode: sparse storage, every position stored.
    grb::Vector<bool> all(n);
    for (Index i = 0; i < n; ++i) all.set_element(i, lanes[i] >= 2);
    for (Index i = 0; i < n; ++i) {
      if (lanes[i] == 3) all.mutable_values()[i] = 2;
    }
    expect_bulk_probe_matches_point(all, size + " all-stored");

    // Search mode: sparse storage with absent lanes.
    grb::Vector<bool> search(n);
    for (Index i = 0; i < n; ++i) {
      if (lanes[i] != 0) search.set_element(i, lanes[i] != 1);
    }
    if (search.nvals() < n) {
      expect_bulk_probe_matches_point(search, size + " search");
    }

    // A wider value type takes the per-lane path in every mode.
    grb::Vector<double> wide(n);
    for (Index i = 0; i < n; ++i) {
      if (lanes[i] != 0) wide.set_element(i, lanes[i] == 1 ? 0.0 : -0.5);
    }
    expect_bulk_probe_matches_point(wide, size + " double search");
    wide.to_dense();
    expect_bulk_probe_matches_point(wide, size + " double bitmap");
    grb::Vector<double> wide_all(n);
    for (Index i = 0; i < n; ++i) wide_all.set_element(i, lanes[i] >= 2);
    expect_bulk_probe_matches_point(wide_all, size + " double all-stored");
  }
}

// --- Mask-driven kernels. ----------------------------------------------------
//
// apply / select / ewise_add / ewise_mult / assign_scalar iterate the
// mask's entries instead of walking their inputs when the mask is a plain
// (uncomplemented) vector mask in sparse storage holding fewer entries than
// the input walk (all n positions for assign_scalar, whose input is a
// scalar).
// Each op runs over masks smaller and larger than its inputs, sparse and
// dense, across the whole flag cube and every operand representation; the
// result must match the position-by-position reference, and
// Context::mask_driven_calls must show exactly the path the rule picks.

constexpr Index kWideN = 300;  // several bitmap words, a partial last one

Model random_model(double density, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution keep(density);
  std::uniform_int_distribution<int> value(1, 40);
  Model m(kWideN);
  for (auto& x : m) {
    if (keep(rng)) x = 0.25 * value(rng);  // exact in binary fp
  }
  return m;
}

/// About a third of the stored entries are false, so value and structural
/// masks select different positions.
std::vector<std::optional<bool>> random_mask_model(double density,
                                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution keep(density);
  std::bernoulli_distribution truthy(0.65);
  std::vector<std::optional<bool>> m(kWideN);
  for (auto& x : m) {
    if (keep(rng)) x = truthy(rng);
  }
  return m;
}

enum class PointwiseOp {
  kApply,
  kSelect,
  kEwiseAdd,
  kEwiseMult,
  kAssignScalar
};

constexpr double kAssignedValue = 3.5;

const char* op_name(PointwiseOp op) {
  switch (op) {
    case PointwiseOp::kApply:
      return "apply";
    case PointwiseOp::kSelect:
      return "select";
    case PointwiseOp::kEwiseAdd:
      return "ewise_add";
    case PointwiseOp::kEwiseMult:
      return "ewise_mult";
    default:
      return "assign_scalar";
  }
}

/// The op's unmasked result T, position by position.
Model computed(PointwiseOp op, const Model& u, const Model& v) {
  Model t(u.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    switch (op) {
      case PointwiseOp::kApply:
        if (u[i]) t[i] = 2.0 * *u[i] + 1.0;
        break;
      case PointwiseOp::kSelect:
        if (u[i] && *u[i] < 5.0) t[i] = u[i];
        break;
      case PointwiseOp::kEwiseAdd:
        if (u[i] && v[i]) {
          t[i] = std::min(*u[i], *v[i]);
        } else {
          t[i] = u[i] ? u[i] : v[i];
        }
        break;
      case PointwiseOp::kEwiseMult:
        if (u[i] && v[i]) t[i] = *u[i] * *v[i];
        break;
      case PointwiseOp::kAssignScalar:
        t[i] = kAssignedValue;
        break;
    }
  }
  return t;
}

template <typename Accum>
void run_pointwise(PointwiseOp op, grb::Context& ctx, grb::Vector<double>& w,
                   const grb::Vector<bool>& mask, const Accum& accum,
                   const grb::Vector<double>& u, const grb::Vector<double>& v,
                   const grb::Descriptor& desc) {
  switch (op) {
    case PointwiseOp::kApply:
      grb::apply(ctx, w, mask, accum,
                 [](double x) { return 2.0 * x + 1.0; }, u, desc);
      break;
    case PointwiseOp::kSelect:
      grb::select(ctx, w, mask, accum,
                  [](double x, Index) { return x < 5.0; }, u, desc);
      break;
    case PointwiseOp::kEwiseAdd:
      grb::ewise_add(ctx, w, mask, accum, grb::Min<double>{}, u, v, desc);
      break;
    case PointwiseOp::kEwiseMult:
      grb::ewise_mult(ctx, w, mask, accum, grb::Times<double>{}, u, v, desc);
      break;
    case PointwiseOp::kAssignScalar:
      // No accumulator: the reference drops the accumulate flag for it.
      grb::assign_scalar(ctx, w, mask, kAssignedValue, desc);
      break;
  }
}

/// Stored entries the op's input-driven kernel walks — the other side of
/// the dispatch comparison.
Index input_walk(PointwiseOp op, const grb::Vector<double>& u,
                 const grb::Vector<double>& v) {
  switch (op) {
    case PointwiseOp::kApply:
    case PointwiseOp::kSelect:
      return u.nvals();
    case PointwiseOp::kEwiseAdd:
      return u.nvals() + v.nvals();
    case PointwiseOp::kEwiseMult:
      if (u.is_dense() == v.is_dense()) return u.nvals() + v.nvals();
      return u.is_dense() ? v.nvals() : u.nvals();
    default:
      return u.size();
  }
}

class MaskDriven : public ::testing::TestWithParam<Flags> {};

TEST_P(MaskDriven, PointwiseOpsMatchTheReference) {
  const Flags f = GetParam();
  const grb::Descriptor desc{.replace = f.replace,
                             .mask_complement = f.complement,
                             .mask_structure = f.structural};
  const Model old = random_model(0.35, 1);
  const Model u_model = random_model(0.4, 2);
  const Model v_model = random_model(0.3, 3);
  bool saw_driven = false;
  bool saw_input_driven = false;
  // 0.04: a mask far smaller than every input walk; 0.3: close to the
  // inputs' size, so consecutive mask positions often hit consecutive
  // input entries; 0.95: larger than every input walk.
  for (const double mask_density : {0.04, 0.3, 0.95}) {
    const auto mask_model = random_mask_model(mask_density, 4);
    for (const bool mask_dense : {false, true}) {
      for (const int reps : {0, 1, 2, 3}) {
        for (const PointwiseOp op :
             {PointwiseOp::kApply, PointwiseOp::kSelect,
              PointwiseOp::kEwiseAdd, PointwiseOp::kEwiseMult,
              PointwiseOp::kAssignScalar}) {
          auto mask = to_vector(mask_model);
          if (mask_dense) mask.to_dense();
          auto u = to_vector(u_model);
          auto v = to_vector(v_model);
          if (reps & 1) u.to_dense();
          if (reps & 2) v.to_dense();
          auto w = to_vector(old);
          grb::Context ctx;
          if (f.accumulate) {
            run_pointwise(op, ctx, w, mask, grb::Plus<double>{}, u, v, desc);
          } else {
            run_pointwise(op, ctx, w, mask, grb::NoAccumulate{}, u, v, desc);
          }
          const std::string where =
              std::string(op_name(op)) + " mask_density=" +
              std::to_string(mask_density) +
              (mask_dense ? " dense-mask" : " sparse-mask") +
              (reps & 1 ? " dense-u" : " sparse-u") +
              (reps & 2 ? " dense-v" : " sparse-v") + " " +
              flags_name({GetParam(), 0});
          Flags ref = f;
          if (op == PointwiseOp::kAssignScalar) ref.accumulate = false;
          expect_matches(w,
                         expected_write(old, computed(op, u_model, v_model),
                                        mask_model, ref),
                         where);
          const bool driven = !f.complement && !mask_dense &&
                              mask.nvals() < input_walk(op, u, v);
          EXPECT_EQ(ctx.mask_driven_calls, driven ? 1u : 0u) << where;
          (driven ? saw_driven : saw_input_driven) = true;
        }
      }
    }
  }
  // Every cell sees both kernels, except that complemented masks must
  // never take the mask-driven one.
  EXPECT_EQ(saw_driven, !f.complement);
  EXPECT_TRUE(saw_input_driven);
}

INSTANTIATE_TEST_SUITE_P(AllFlagCombos, MaskDriven,
                         ::testing::ValuesIn(all_flag_combinations()),
                         flags_name);

TEST(AssignScalarVector, MaskedMembershipIdiom) {
  // S<tB> = true: mark bucket members in the processed set.
  grb::Vector<bool> s(5);
  s.set_element(0, true);
  grb::Vector<bool> tb(5);
  tb.set_element(2, true);
  tb.set_element(4, true);
  grb::Context ctx;
  grb::assign_scalar(ctx, s, tb, true);
  EXPECT_TRUE(*s.extract_element(0));
  EXPECT_TRUE(*s.extract_element(2));
  EXPECT_TRUE(*s.extract_element(4));
  EXPECT_EQ(s.nvals(), 3u);
}

TEST(AssignScalarVector, StructuralMask) {
  grb::Vector<double> w(4);
  grb::Vector<double> mask(4);
  mask.set_element(1, 0.0);  // present but falsy
  mask.set_element(2, 5.0);
  grb::Context ctx;
  grb::assign_scalar(ctx, w, mask, 7.0, grb::structure_mask_desc);
  EXPECT_EQ(w.nvals(), 2u);  // structural: both positions written
  EXPECT_DOUBLE_EQ(*w.extract_element(1), 7.0);
}

// The replace-mode write installs z without merging against the old w.  It
// must still normalize values when the output element type differs from
// the computed one: storage is unsigned char for both bool and unsigned
// char, so a missing cast would leave e.g. 7 in a bool vector.
TEST(MaskDrivenWrite, ReplaceInstallNormalizesBoolAndUchar) {
  const auto mask_model = random_mask_model(0.04, 5);
  const auto mask = to_vector(mask_model);
  std::vector<std::optional<unsigned char>> u_model(kWideN);
  for (Index i = 0; i < kWideN; i += 2) {
    u_model[i] = static_cast<unsigned char>(i % 9);  // 0 and values > 1
  }
  const auto u = to_vector(u_model);
  const auto identity = [](unsigned char x) { return x; };
  for (const bool replace : {false, true}) {
    const grb::Descriptor desc{.replace = replace};
    // W = bool, Z = unsigned char, through the mask-driven kernel and
    // through the unmasked input-driven one.
    grb::Context ctx;
    grb::Vector<bool> masked(kWideN);
    grb::apply(ctx, masked, mask, grb::NoAccumulate{}, identity, u, desc);
    EXPECT_EQ(ctx.mask_driven_calls, 1u);
    grb::Vector<bool> unmasked(kWideN);
    grb::apply(ctx, unmasked, grb::NoMask{}, grb::NoAccumulate{}, identity,
               u, desc);
    EXPECT_EQ(ctx.mask_driven_calls, 1u);
    for (const auto* w : {&masked, &unmasked}) {
      auto wi = w->indices();
      auto wv = w->values();
      for (std::size_t k = 0; k < wi.size(); ++k) {
        EXPECT_EQ(wv[k], *u_model[wi[k]] != 0 ? 1 : 0)
            << "replace=" << replace << " at " << wi[k];
      }
    }
    std::size_t want = 0;
    for (Index i = 0; i < kWideN; ++i) {
      if (mask_model[i].value_or(false) && u_model[i]) ++want;
    }
    EXPECT_EQ(masked.nvals(), want) << "replace=" << replace;
    EXPECT_EQ(unmasked.nvals(), u.nvals()) << "replace=" << replace;

    // W = bool, Z = double: the Fig. 2 filter tless<treq> = (treq < t),
    // where ewise_add's union type is double.
    std::vector<std::optional<double>> t_model(kWideN);
    for (Index i = 0; i < kWideN; i += 3) {
      t_model[i] = 0.5 * static_cast<double>(i % 7);
    }
    const auto t = to_vector(t_model);
    std::vector<std::optional<double>> treq_model(kWideN);
    for (Index i = 0; i < kWideN; i += 30) treq_model[i] = 1.0;
    const auto treq = to_vector(treq_model);
    grb::Vector<bool> tless(kWideN);
    grb::ewise_add(ctx, tless, treq, grb::NoAccumulate{},
                   grb::LessThan<double>{}, treq, t, desc);
    EXPECT_EQ(ctx.mask_driven_calls, 2u);
    auto li = tless.indices();
    auto lv = tless.values();
    ASSERT_EQ(li.size(), treq.nvals());
    for (std::size_t k = 0; k < li.size(); ++k) {
      const Index i = li[k];
      const bool want_less = !t_model[i] || 1.0 < *t_model[i];
      // A lone treq entry passes through as 1.0, i.e. true.
      EXPECT_EQ(lv[k], want_less ? 1 : 0) << "replace=" << replace << " at "
                                          << i;
    }
  }
}

}  // namespace
