// SPMSPV — microbenchmarks for the two representation-sensitive hot paths
// of the substrate.
//
// Section 1: workspace-reusing sparse-frontier vxm (the delta-stepping
// light-phase kernel when the frontier holds a handful of vertices and n is
// large).  Two configurations of the same kernel:
//   cold:   a fresh grb::Context per call — every call pays the O(n)
//           workspace (re)initialization, which is what the pre-workspace
//           engine paid on *every* vxm;
//   reused: one Context across calls — steady-state cost is O(frontier
//           out-degree) thanks to the sparse accumulator reset.
// Gate: reused >= 5x faster than cold at frontier=16.
//
// Section 2: point-wise ops (apply under a mask / in-place eWiseAdd(Min) /
// select) over a 75%-dense length-n vector, pinned to the sparse
// representation vs pinned to the dense (bitmap) representation — the
// delta-stepping tentative-distance access pattern.  Outputs are verified
// bit-identical between the two paths, and between the serial and OpenMP
// dense kernels, before timing.
// Gate: geometric-mean dense-path speedup >= 2x.
//
// Section 3: the word-packed bitmap layout itself.  The probe-bound
// pointwise rows (apply_masked, select_range — the O(n)-sweep shapes) are
// re-timed against a faithful byte-per-position bitmap reference
// reproducing the pre-word-pack dense kernels: same two-pass kernel+write
// structure, same steady-state buffer reuse, one byte load per bitmap
// probe.  The word side runs with the dense-output compaction heuristic
// pinned off so the gate isolates the dense-stage layout (words vs
// bytes), not the separately-taken compaction path.  ewise_min_relax is
// excluded — its in-place path is O(nnz(tReq)) random access, not
// probe-bound, so the layout is irrelevant to it.
// Gate: geometric-mean word-packed speedup >= 1.3x over the byte
// reference.
//
// Exit status: 0 when all three gates clear (enforced only at the full
// default size, n >= 1<<20, so CI smoke runs with --n smaller stay
// meaningful; the bit-identity checks are enforced at every size).
//
// Flags: --n N (default 1<<20), --deg D (default 8), --json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graphblas/graphblas.hpp"

namespace {

using dsg::format_double;
using grb::Index;

grb::Matrix<double> random_graph(Index n, int deg, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Index> pick(0, n - 1);
  std::uniform_real_distribution<double> wd(0.5, 2.0);
  std::vector<Index> r, c;
  std::vector<double> v;
  r.reserve(static_cast<std::size_t>(n) * deg);
  c.reserve(r.capacity());
  v.reserve(r.capacity());
  for (Index i = 0; i < n; ++i) {
    for (int k = 0; k < deg; ++k) {
      r.push_back(i);
      c.push_back(pick(rng));
      v.push_back(wd(rng));
    }
  }
  return grb::Matrix<double>::build(n, n, r, c, v, grb::Min<double>{});
}

template <typename F>
double best_ms_per_call(F&& call, int reps, int calls_per_rep) {
  call();  // warm (first-touch pages, workspace growth)
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (int k = 0; k < calls_per_rep; ++k) call();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      calls_per_rep;
    if (ms < best) best = ms;
  }
  return best;
}

/// A length-n vector with ~`density` of all positions stored (random
/// values), built sparse; callers pin the representation explicitly.
grb::Vector<double> random_dense_ish(grb::Index n, double density,
                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> vd(0.0, 100.0);
  std::bernoulli_distribution keep(density);
  grb::Vector<double> v(n);
  auto& vi = v.mutable_indices();
  auto& vv = v.mutable_values();
  for (grb::Index i = 0; i < n; ++i) {
    if (keep(rng)) {
      vi.push_back(i);
      vv.push_back(vd(rng));
    }
  }
  return v;
}

grb::Vector<bool> random_mask(grb::Index n, double density,
                              std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution keep(density);
  std::bernoulli_distribution truthy(0.5);
  grb::Vector<bool> m(n);
  auto& mi = m.mutable_indices();
  auto& mv = m.mutable_values();
  for (grb::Index i = 0; i < n; ++i) {
    if (keep(rng)) {
      mi.push_back(i);
      mv.push_back(truthy(rng) ? 1 : 0);
    }
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsg;
  CliArgs args(argc, argv);
  const auto n = static_cast<Index>(args.get_int("n", 1 << 20));
  const int deg = static_cast<int>(args.get_int("deg", 8));
  const auto sr = grb::min_plus_semiring<double>();

  auto a = random_graph(n, deg, 42);

  TableReporter table("spmspv",
                      "SPMSPV: sparse-frontier vxm, workspace reuse vs "
                      "per-call reset (n=" +
                          std::to_string(n) + ", deg=" + std::to_string(deg) +
                          ")");
  table.set_header(
      {"frontier", "cold_ms", "reused_ms", "speedup", "ratio_vs_gate"});

  std::mt19937_64 rng(7);
  std::uniform_int_distribution<Index> pick(0, n - 1);
  double gate_speedup = 0.0;

  for (Index frontier : {Index{4}, Index{16}, Index{64}, Index{256}}) {
    grb::Vector<double> u(n);
    for (Index k = 0; k < frontier; ++k) {
      u.set_element(pick(rng), 0.25 * static_cast<double>(k));
    }
    grb::Vector<double> w(n);

    const int calls = n >= (Index{1} << 18) ? 50 : 200;
    const double cold = best_ms_per_call(
        [&] {
          grb::Context fresh;
          grb::vxm(fresh, w, sr, u, a, grb::replace_desc);
        },
        3, calls);

    grb::Context ctx;
    const double reused = best_ms_per_call(
        [&] { grb::vxm(ctx, w, sr, u, a, grb::replace_desc); }, 3, calls);

    const double speedup = cold / reused;
    if (frontier == 16) gate_speedup = speedup;
    table.add_row({frontier, cold, reused, speedup, speedup / 5.0});
  }

  table.add_footer("gate: frontier=16 must be >= 5x; measured " +
                   format_double(gate_speedup, 2) + "x");
  bench::emit(table, args);

  // --- Section 2: point-wise ops, sparse vs dense representation. ----------
  //
  // The tentative-distance access pattern of delta-stepping: a 75%-dense
  // value vector, a stored-everywhere-it-matters boolean filter, and a
  // sparse (1%) request vector.  Each op runs twice on logically identical
  // inputs — once pinned to the sparse representation, once pinned to the
  // dense one (auto-switching disabled on both contexts so neither path
  // migrates mid-measurement) — and the outputs are compared bit-for-bit
  // before any timing is trusted.
  const double kDensity = 0.75;
  auto t_sparse = random_dense_ish(n, kDensity, 11);
  auto m_sparse = random_mask(n, kDensity, 12);
  auto treq = random_dense_ish(n, 0.01, 13);  // sparse request vector
  auto t_dense = t_sparse;
  t_dense.to_dense();
  auto m_dense = m_sparse;
  m_dense.to_dense();

  grb::Context ctx_sparse, ctx_dense;
  ctx_sparse.auto_representation = false;
  ctx_dense.auto_representation = false;

  const double sel_lo = 25.0, sel_hi = 75.0;
  auto range_pred = [=](double x, Index) { return x >= sel_lo && x < sel_hi; };

  struct PointwiseOp {
    const char* name;
    std::function<void(grb::Context&, grb::Vector<double>&,
                       const grb::Vector<double>&, const grb::Vector<bool>&)>
        run;
  };
  const std::vector<PointwiseOp> pointwise_ops = {
      // The Fig. 2 filter idiom: identity under a value mask, replace mode.
      {"apply_masked",
       [&](grb::Context& c, grb::Vector<double>& w,
           const grb::Vector<double>& t, const grb::Vector<bool>& m) {
         grb::apply(c, w, m, grb::NoAccumulate{}, grb::Identity<double>{}, t,
                    grb::replace_desc);
       }},
      // The relaxation: w = min(w, tReq) with w aliasing the first operand
      // (O(nnz(tReq)) in-place on the dense path).
      {"ewise_min_relax",
       [&](grb::Context& c, grb::Vector<double>& w, const grb::Vector<double>&,
           const grb::Vector<bool>&) {
         grb::ewise_add(c, w, grb::NoMask{}, grb::NoAccumulate{},
                        grb::Min<double>{}, w, treq);
       }},
      // Bucket extraction: keep values in [lo, hi).
      {"select_range",
       [&](grb::Context& c, grb::Vector<double>& w,
           const grb::Vector<double>& t, const grb::Vector<bool>&) {
         grb::select(c, w, grb::NoMask{}, grb::NoAccumulate{}, range_pred, t);
       }},
  };

  TableReporter ptable(
      "spmspv_pointwise",
      "POINTWISE: sparse vs dense representation (n=" + std::to_string(n) +
          ", density=" + format_double(kDensity, 2) + ")");
  ptable.set_header({"op", "sparse_ms", "dense_ms", "speedup"});

  bool identical = true;
  double speedup_product = 1.0;
  for (const auto& op : pointwise_ops) {
    // Bit-identity first, on fresh outputs and fresh contexts: sparse vs
    // dense representation, and serial vs OpenMP dense kernels (the word
    // sweeps must be bit-identical for any thread count).
    {
      grb::Context cs, cd;
      cs.auto_representation = false;
      cd.auto_representation = false;
      grb::Vector<double> ws = t_sparse;  // ewise_min_relax updates in place
      grb::Vector<double> wd = t_dense;
      op.run(cs, ws, t_sparse, m_sparse);
      op.run(cd, wd, t_dense, m_dense);
      if (!(ws == wd)) {
        std::cerr << "FAILED: " << op.name
                  << " outputs differ between representations\n";
        identical = false;
      }

      // Serial vs OpenMP, with the dense-output heuristic pinned to each
      // of its two paths in turn — crossover 0 forces the word-packed
      // dense stage, 1 forces the compaction kernel — so both parallel
      // kernels are exercised regardless of what the estimator would pick.
      for (double crossover : {0.0, 1.0}) {
        grb::Context cser, cpar;
        cser.auto_representation = false;
        cpar.auto_representation = false;
        cser.dense_output_crossover = crossover;
        cpar.dense_output_crossover = crossover;
        cser.pointwise_parallel_threshold = n + 1;  // force serial kernels
        cpar.pointwise_parallel_threshold = 1;      // force OpenMP kernels
        grb::Vector<double> w1 = t_dense;
        grb::Vector<double> w2 = t_dense;
        op.run(cser, w1, t_dense, m_dense);
        op.run(cpar, w2, t_dense, m_dense);
        if (!(w1 == w2)) {
          std::cerr << "FAILED: " << op.name
                    << " serial and OpenMP dense kernels disagree "
                       "(crossover="
                    << crossover << ")\n";
          identical = false;
        }
        if (!(w1 == wd)) {
          std::cerr << "FAILED: " << op.name
                    << " dense-stage/compaction paths disagree (crossover="
                    << crossover << ")\n";
          identical = false;
        }
      }
    }

    const int calls = n >= (Index{1} << 18) ? 10 : 100;
    grb::Vector<double> ws = t_sparse;
    const double sparse_ms = best_ms_per_call(
        [&] { op.run(ctx_sparse, ws, t_sparse, m_sparse); }, 3, calls);
    grb::Vector<double> wd = t_dense;
    const double dense_ms = best_ms_per_call(
        [&] { op.run(ctx_dense, wd, t_dense, m_dense); }, 3, calls);

    const double speedup = sparse_ms / dense_ms;
    speedup_product *= speedup;
    ptable.add_row({op.name, sparse_ms, dense_ms, speedup});
  }
  const double geomean =
      std::pow(speedup_product, 1.0 / static_cast<double>(
                                          pointwise_ops.size()));
  ptable.add_footer("gate: geomean dense-path speedup >= 2x; measured " +
                    format_double(geomean, 2) + "x");
  bench::emit(ptable, args);

  // --- Section 3: word-packed vs byte-per-position bitmap. -----------------
  //
  // A faithful reference for the pre-word-pack dense kernels: validity is
  // one byte per position, the kernel pass sweeps all n positions probing
  // input and mask bytes, the write pass replays the old dense write phase
  // (masked general path for apply_masked; the unmasked swap fast path for
  // select_range), and stage resets pay the O(n) byte clear the old
  // DenseKernelStage::reset paid.  Buffers persist across calls exactly
  // like the Context-owned stages, so both sides are measured in steady
  // state.
  double wordpack_geomean = 0.0;
  {
    const auto nb = static_cast<std::size_t>(n);
    std::vector<unsigned char> ubyte(nb, 0), mbyte(nb, 0), mtruth(nb, 0);
    std::vector<double> ubval(nb, 0.0);
    t_dense.for_each([&](Index i, const double& x) {
      ubyte[i] = 1;
      ubval[i] = x;
    });
    m_dense.for_each([&](Index i, const bool& x) {
      mbyte[i] = 1;
      mtruth[i] = x ? 1 : 0;
    });

    // Persistent byte-bitmap staging + output, the old Context scratch.
    std::vector<unsigned char> sbit(nb, 0), obit(nb, 0), wbit(nb, 0);
    std::vector<double> sval(nb, 0.0), oval(nb, 0.0), wval(nb, 0.0);
    // Checked against the real op's nvals below (and keeps the reference
    // loops observable, so they cannot be optimized away).
    std::size_t last_nnz = 0;

    // apply_masked: kernel pass (mask pushed down) + masked write pass,
    // replace mode, one byte probe per position in each pass.
    auto apply_masked_byte = [&] {
      std::fill(sbit.begin(), sbit.end(), static_cast<unsigned char>(0));
      for (std::size_t i = 0; i < nb; ++i) {
        if (ubyte[i] && mbyte[i] && mtruth[i]) {
          sbit[i] = 1;
          sval[i] = ubval[i];
        }
      }
      std::fill(obit.begin(), obit.end(), static_cast<unsigned char>(0));
      std::size_t nnz = 0;
      for (std::size_t i = 0; i < nb; ++i) {
        const bool in_z = sbit[i] != 0;
        const bool in_w = wbit[i] != 0;
        if (in_z || (mbyte[i] && mtruth[i])) {  // z prefiltered || probe
          if (in_z) {
            obit[i] = 1;
            oval[i] = sval[i];
            ++nnz;
          }
        } else if (in_w) {
          // replace mode: old entry dropped (probe already paid).
        }
      }
      wbit.swap(obit);
      wval.swap(oval);
      last_nnz = nnz;
    };

    // select_range: kernel pass + the unmasked non-accum swap fast path.
    auto select_range_byte = [&] {
      std::fill(sbit.begin(), sbit.end(), static_cast<unsigned char>(0));
      std::size_t nnz = 0;
      for (std::size_t i = 0; i < nb; ++i) {
        if (ubyte[i] && range_pred(ubval[i], static_cast<Index>(i))) {
          sbit[i] = 1;
          sval[i] = ubval[i];
          ++nnz;
        }
      }
      wbit.swap(sbit);
      wval.swap(sval);
      last_nnz = nnz;
    };

    struct WordpackRow {
      const char* name;
      std::function<void()> byte_ref;
    };
    const std::vector<WordpackRow> rows = {
        {"apply_masked", apply_masked_byte},
        {"select_range", select_range_byte},
    };

    TableReporter wtable(
        "spmspv_wordpack",
        "WORDPACK: probe-bound dense ops, byte-bitmap reference vs "
        "word-packed (n=" +
            std::to_string(n) + ", density=" + format_double(kDensity, 2) +
            ")");
    wtable.set_header({"op", "byte_ms", "word_ms", "speedup"});

    // The word side is timed with the output-compaction heuristic pinned
    // OFF: the gate is about the word-packed dense *stage* — same
    // two-pass kernel+write structure as the byte reference, words
    // instead of bytes — not about the (separately measured) compaction
    // path the heuristic may pick for these selectivities.  Section 2's
    // dense_ms rows remain the as-shipped production path.
    grb::Context ctx_word;
    ctx_word.auto_representation = false;
    ctx_word.dense_output_crossover = 0.0;

    const int calls = n >= (Index{1} << 18) ? 10 : 100;
    double product = 1.0;
    for (const auto& row : rows) {
      const PointwiseOp* op = nullptr;
      for (const auto& candidate : pointwise_ops) {
        if (std::string(candidate.name) == row.name) op = &candidate;
      }
      if (op == nullptr) continue;

      // Sanity: the reference must keep exactly the entries the real op
      // keeps (a miswritten reference would make the gate meaningless).
      std::fill(wbit.begin(), wbit.end(), static_cast<unsigned char>(0));
      row.byte_ref();
      {
        grb::Context cchk;
        cchk.auto_representation = false;
        cchk.dense_output_crossover = 0.0;
        grb::Vector<double> wchk = t_dense;
        op->run(cchk, wchk, t_dense, m_dense);
        if (static_cast<std::size_t>(wchk.nvals()) != last_nnz) {
          std::cerr << "FAILED: " << row.name
                    << " byte-bitmap reference keeps " << last_nnz
                    << " entries, real op keeps " << wchk.nvals() << "\n";
          identical = false;
        }
      }
      const double byte_ms =
          best_ms_per_call([&] { row.byte_ref(); }, 3, calls);
      grb::Vector<double> wword = t_dense;
      const double word_ms = best_ms_per_call(
          [&] { op->run(ctx_word, wword, t_dense, m_dense); }, 3, calls);
      const double speedup = byte_ms / word_ms;
      product *= speedup;
      wtable.add_row({row.name, byte_ms, word_ms, speedup});
    }
    wordpack_geomean =
        std::pow(product, 1.0 / static_cast<double>(rows.size()));
    wtable.add_footer(
        "gate: geomean word-packed speedup >= 1.3x over the byte-bitmap "
        "reference; measured " +
        format_double(wordpack_geomean, 2) + "x");
    bench::emit(wtable, args);
  }

  if (!identical) return 1;  // representations must agree at every size

  // Only enforce the perf gates at the default scale: tiny --n smoke runs
  // have n comparable to the frontier, where neither effect can dominate.
  if (n >= (Index{1} << 20)) {
    if (gate_speedup < 5.0) {
      std::cerr << "FAILED: workspace reuse speedup " << gate_speedup
                << "x below the 5x acceptance gate\n";
      return 1;
    }
    if (geomean < 2.0) {
      std::cerr << "FAILED: dense-path pointwise speedup (geomean) "
                << geomean << "x below the 2x acceptance gate\n";
      return 1;
    }
    if (wordpack_geomean < 1.3) {
      std::cerr << "FAILED: word-packed bitmap speedup (geomean) "
                << wordpack_geomean
                << "x below the 1.3x acceptance gate vs the byte-bitmap "
                   "reference\n";
      return 1;
    }
  }
  return 0;
}
