// solver_c.cpp — the v2 C API: DsgSolver_* plan/execute handles over
// dsg::sssp::SsspSolver (see the header block in capi/graphblas.h).
//
// Compiled into the dsg_sssp library (not the GrB_* shared binding): the
// solver handles sit above the SSSP layer, while the GrB_* binding sits
// below it — folding both into one library would create a dependency
// cycle.  The shared piece is capi_internal.hpp, the opaque layouts.
//
// Error-code discipline: every entry traps all exceptions and maps them to
// GrB_Info (the same table as the v1 binding); nothing ever throws across
// the C boundary.
#include <algorithm>
#include <exception>
#include <new>

#include "capi/capi_internal.hpp"
#include "capi/graphblas.h"
#include "sssp/query_control.hpp"
#include "sssp/solver.hpp"

struct DsgSolver_opaque {
  dsg::sssp::SsspSolver impl;
};

namespace {

/// Translates grb:: exceptions into GrB_Info codes at the API boundary.
template <typename Fn>
GrB_Info guarded(Fn&& fn) {
  try {
    fn();
    return GrB_SUCCESS;
  } catch (const grb::DimensionMismatch&) {
    return GrB_DIMENSION_MISMATCH;
  } catch (const grb::IndexOutOfBounds&) {
    return GrB_INVALID_INDEX;
  } catch (const grb::InvalidValue&) {
    return GrB_INVALID_VALUE;
  } catch (const std::bad_alloc&) {
    return GrB_OUT_OF_MEMORY;
  } catch (...) {
    return GrB_PANIC;
  }
}

/// The same exception table as guarded(), applied to a captured exception
/// (per-query classification for the batch _opts entry point).
GrB_Info classify(const std::exception_ptr& e) {
  return guarded([&] { std::rethrow_exception(e); });
}

/// Maps an interruption status to its DSG_* code (kComplete = GrB_SUCCESS).
GrB_Info status_code(dsg::SsspStatus status) {
  switch (status) {
    case dsg::SsspStatus::kComplete: return GrB_SUCCESS;
    case dsg::SsspStatus::kDeadlineExpired: return DSG_TIMEOUT;
    case dsg::SsspStatus::kCancelled: return DSG_CANCELLED;
    case dsg::SsspStatus::kFailed: return GrB_PANIC;  // unreachable here
  }
  return GrB_PANIC;
}

}  // namespace

extern "C" {

GrB_Info DsgSolver_new(DsgSolver* solver, GrB_Matrix a,
                       DsgSsspAlgorithm algorithm, double delta) {
  if (!solver || !a) return GrB_NULL_POINTER;
  *solver = nullptr;
  return guarded([&] {
    dsg::sssp::SolverOptions options;
    // Validated before the snapshot and the plan: an id with no registry
    // entry (AUTO, the retired 8, out of range) is GrB_INVALID_VALUE.
    options.algorithm = dsg::sssp::algorithm_info(
        static_cast<dsg::sssp::Algorithm>(algorithm)).id;
    options.delta = delta;
    // Snapshot: the solver owns a copy, so the caller may free or mutate
    // `a` afterwards.
    *solver = new DsgSolver_opaque{
        dsg::sssp::SsspSolver(grb::Matrix<double>(a->impl), options)};
  });
}

GrB_Info DsgSolver_nrows(GrB_Index* n, DsgSolver solver) {
  if (!n || !solver) return GrB_NULL_POINTER;
  return guarded([&] { *n = solver->impl.num_vertices(); });
}

GrB_Info DsgSolver_delta(double* delta, DsgSolver solver) {
  if (!delta || !solver) return GrB_NULL_POINTER;
  return guarded([&] { *delta = solver->impl.delta(); });
}

GrB_Info DsgSolver_algorithm_name(const char** name, DsgSolver solver) {
  if (!name || !solver) return GrB_NULL_POINTER;
  return guarded(
      [&] { *name = dsg::sssp::algorithm_info(solver->impl.algorithm()).name; });
}

GrB_Info DsgSolver_solve(DsgSolver solver, GrB_Index source, double* dist) {
  if (!solver || !dist) return GrB_NULL_POINTER;
  return guarded([&] {
    dsg::SsspResult result = solver->impl.solve(source);
    std::copy(result.dist.begin(), result.dist.end(), dist);
  });
}

GrB_Info DsgSolver_solve_batch(DsgSolver solver, const GrB_Index* sources,
                               GrB_Index batch, double* dist) {
  if (!solver || (batch > 0 && (!sources || !dist))) return GrB_NULL_POINTER;
  return guarded([&] {
    std::span<const grb::Index> span(sources, batch);
    std::vector<dsg::SsspResult> results = solver->impl.solve_batch(span);
    const std::size_t n = solver->impl.num_vertices();
    for (std::size_t k = 0; k < results.size(); ++k) {
      std::copy(results[k].dist.begin(), results[k].dist.end(),
                dist + k * n);
    }
  });
}

GrB_Info DsgSolver_free(DsgSolver* solver) {
  if (!solver) return GrB_NULL_POINTER;
  return guarded([&] {
    delete *solver;
    *solver = nullptr;
  });
}

/* --- Query lifecycle. --------------------------------------------------- */

GrB_Info DsgQueryControl_new(DsgQueryControl* control) {
  if (!control) return GrB_NULL_POINTER;
  *control = nullptr;
  return guarded([&] { *control = new DsgQueryControl_opaque(); });
}

GrB_Info DsgQueryControl_set_timeout(DsgQueryControl control, double seconds) {
  if (!control) return GrB_NULL_POINTER;
  return guarded([&] { control->impl.set_timeout(seconds); });
}

GrB_Info DsgQueryControl_cancel(DsgQueryControl control) {
  if (!control) return GrB_NULL_POINTER;
  return guarded([&] { control->impl.request_cancel(); });
}

GrB_Info DsgQueryControl_reset(DsgQueryControl control) {
  if (!control) return GrB_NULL_POINTER;
  return guarded([&] { control->impl.reset(); });
}

GrB_Info DsgQueryControl_free(DsgQueryControl* control) {
  if (!control) return GrB_NULL_POINTER;
  return guarded([&] {
    delete *control;
    *control = nullptr;
  });
}

GrB_Info DsgSolver_solve_opts(DsgSolver solver, GrB_Index source,
                              double* dist, DsgQueryControl control) {
  if (!solver || !dist) return GrB_NULL_POINTER;
  GrB_Info soft = GrB_SUCCESS;
  const GrB_Info hard = guarded([&] {
    dsg::SsspResult result =
        control ? solver->impl.solve(source, control->impl)
                : solver->impl.solve(source);
    std::copy(result.dist.begin(), result.dist.end(), dist);
    soft = status_code(result.status);
  });
  return hard != GrB_SUCCESS ? hard : soft;
}

GrB_Info DsgSolver_solve_batch_opts(DsgSolver solver,
                                    const GrB_Index* sources, GrB_Index batch,
                                    double* dist, DsgQueryControl control,
                                    GrB_Info* statuses) {
  if (!solver || (batch > 0 && (!sources || !dist || !statuses))) {
    return GrB_NULL_POINTER;
  }
  return guarded([&] {
    dsg::sssp::BatchOptions opts;
    opts.control = control ? &control->impl : nullptr;
    std::span<const grb::Index> span(sources, batch);
    std::vector<dsg::sssp::QueryResult> results =
        solver->impl.solve_batch(span, opts);
    const std::size_t n = solver->impl.num_vertices();
    for (std::size_t k = 0; k < results.size(); ++k) {
      if (!results[k].ok()) {
        statuses[k] = classify(results[k].exception);
        continue;  // the failed query's distance slice stays untouched
      }
      std::copy(results[k].result.dist.begin(), results[k].result.dist.end(),
                dist + k * n);
      statuses[k] = status_code(results[k].result.status);
    }
  });
}

}  // extern "C"
