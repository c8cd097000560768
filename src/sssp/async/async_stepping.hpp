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
// Level rounds.  When every stored weight has the same bits w and the
// pattern is symmetric (GraphPlan::uniform_symmetric_weight), the engine
// runs a level-synchronous BFS instead, ignoring Δ: round k holds exactly
// the vertices at hop level k, and the next level's distance L + w is
// computed once per round by the coordinator.  A sparse round pushes:
// each frontier vertex claims its unreached neighbours with write_min from
// +inf.  A dense round pulls: it sweeps the unreached vertices and stops
// each at its first neighbour flagged in the frontier (under symmetry a
// row lists the in-neighbours too), writing only the vertices it claims.
// This is the masked mxv with the complement of the visited set that
// GraphBLAST exposes as its push/pull switch; the direction follows
// Beamer, Asanović & Patterson's rule (SC'12): pull once the next
// frontier's edges exceed 1/14 of the edges of unreached vertices, push
// again once it holds fewer than n/24 vertices.  A pull round reads its
// frontier flags without consuming them; the next pull round clears them
// in its sweep, a switch back to push clears them while packing the list,
// and a solve that ends with flags set scrubs them, so both flag arrays
// are still all-zero between solves.  The output is the same: every k-hop
// path sums left to right to the same s_k, and s_k never decreases in k,
// so the unique fixed point is s_hops(v).
//
// Determinism contract: the *schedule* (rounds, relaxation order, stats)
// varies run to run, but the returned distances are bit-identical across
// thread counts and schedules — quiescence is the unique fp min-plus
// fixed point (write_min.hpp documents the argument).  The registry
// flags the variant deterministic = false because its SsspStats are
// schedule-dependent; SsspResult.dist is not.
//
// Under ExecOptions::profile, light_seconds is the time in relaxation
// rounds and vector_seconds the coordinator's bookkeeping between them
// (termination test, dense-size estimate, mode switch, dense-to-sparse
// pack, theta), both timed from the coordinator's view of each round;
// heavy_seconds stays 0, the engine has no heavy phase.
// stats.outer_iterations and stats.light_phases count rounds, and
// stats.relax_requests counts vertices relaxed (frontier members plus
// local-queue hits), matching the vertex-granular accounting of the
// deterministic engines.  In level rounds each level counts once, as the
// frontier of its round, so relax_requests is the number of reached
// vertices whether they were pushed or pulled; stats.pull_rounds counts
// the rounds that pulled, and these counters do not depend on the
// schedule.
#pragma once

#include "sssp/common.hpp"
#include "sssp/plan.hpp"

namespace grb {
class Context;
}

namespace dsg {

/// Asynchronous delta-stepping.  Buckets by the plan's delta but relaxes
/// each bucket lock-free instead of in two-pass deterministic phases.
/// Uses ExecOptions::num_threads (0 = the library default of
/// resolve_num_threads, as for the OpenMP core; 1 = inline on the calling
/// thread).
SsspResult delta_stepping_async(const GraphPlan& plan, grb::Context& ctx,
                                Index source, const ExecOptions& exec);

}  // namespace dsg
