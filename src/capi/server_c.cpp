// server_c.cpp — the C face of the serving layer: DsgServer_* handles
// over dsg::serving::SsspServer (see capi/graphblas.h for the contract
// and docs/capi.md for the reference).
//
// Compiled into the dsg_serving library, one layer above dsg_sssp's
// solver handles; the shared piece is capi_internal.hpp (opaque
// layouts).  Same error-code discipline as solver_c.cpp: every entry
// traps all exceptions and maps them to GrB_Info — nothing ever throws
// across the C boundary.
#include <algorithm>
#include <exception>
#include <new>
#include <string>

#include "capi/capi_internal.hpp"
#include "capi/graphblas.h"
#include "serving/server.hpp"
#include "sssp/query_control.hpp"

struct DsgServer_opaque {
  // SsspServer is neither movable nor copyable (it owns running
  // threads), so the opaque wrapper constructs it in place.
  template <typename... Args>
  explicit DsgServer_opaque(Args&&... args)
      : impl(std::forward<Args>(args)...) {}

  dsg::serving::SsspServer impl;
};

namespace {

/// Translates grb:: exceptions into GrB_Info codes at the API boundary
/// (the same table as solver_c.cpp — deliberately duplicated per TU so
/// the two libraries stay link-independent).
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

/// The guarded() table applied to a captured exception (classifying a
/// worker-side failure when the caller redeems the ticket).
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

/// Folds the C enum (which adds DSG_SSSP_AUTO = -1) into ServerOptions.
/// Any other id without a registry entry is rejected here, so the error
/// surfaces before the plan is built or threads spin up.
void apply_algorithm(dsg::serving::ServerOptions& options,
                     DsgSsspAlgorithm algorithm) {
  if (algorithm == DSG_SSSP_AUTO) return;  // options.algorithm stays nullopt
  options.algorithm =
      dsg::sssp::algorithm_info(static_cast<dsg::sssp::Algorithm>(algorithm))
          .id;
}

dsg::serving::ServerOptions make_options(DsgSsspAlgorithm algorithm,
                                         double delta, int32_t num_workers,
                                         GrB_Index queue_capacity,
                                         GrB_Index cache_capacity) {
  dsg::serving::ServerOptions options;
  apply_algorithm(options, algorithm);
  options.delta = delta;
  options.num_workers = static_cast<int>(num_workers);
  options.queue_capacity = static_cast<std::size_t>(queue_capacity);
  options.cache_capacity = static_cast<std::size_t>(cache_capacity);
  return options;
}

}  // namespace

extern "C" {

GrB_Info DsgServer_new(DsgServer* server, GrB_Matrix a,
                       DsgSsspAlgorithm algorithm, double delta,
                       int32_t num_workers, GrB_Index queue_capacity,
                       GrB_Index cache_capacity) {
  if (!server || !a) return GrB_NULL_POINTER;
  *server = nullptr;
  return guarded([&] {
    dsg::serving::ServerOptions options = make_options(
        algorithm, delta, num_workers, queue_capacity, cache_capacity);
    // Snapshot: the server owns a copy, so the caller may free or mutate
    // `a` afterwards.
    *server = new DsgServer_opaque(grb::Matrix<double>(a->impl), options);
  });
}

GrB_Info DsgServer_new_from_file(DsgServer* server, const char* path,
                                 DsgSsspAlgorithm algorithm,
                                 int32_t num_workers,
                                 GrB_Index queue_capacity,
                                 GrB_Index cache_capacity) {
  if (!server || !path) return GrB_NULL_POINTER;
  *server = nullptr;
  return guarded([&] {
    // The file pins Δ, so the options' delta is never consulted on this
    // path (the plan-sharing constructor ignores it).
    dsg::serving::ServerOptions options = make_options(
        algorithm, dsg::kAutoDelta, num_workers, queue_capacity,
        cache_capacity);
    auto plan = std::make_shared<const dsg::GraphPlan>(
        dsg::GraphPlan::load(std::string(path)));
    *server = new DsgServer_opaque(std::move(plan), options);
  });
}

GrB_Info DsgServer_save_plan(DsgServer server, const char* path) {
  if (!server || !path) return GrB_NULL_POINTER;
  return guarded([&] { server->impl.plan().save(std::string(path)); });
}

GrB_Info DsgServer_submit(DsgServer server, GrB_Index source,
                          DsgQueryControl control, uint64_t* ticket) {
  if (!server || !ticket) return GrB_NULL_POINTER;
  return guarded([&] {
    dsg::serving::SsspServer::Query query;
    query.source = source;
    query.control = control ? &control->impl : nullptr;
    *ticket = server->impl.submit(query);
  });
}

GrB_Info DsgServer_wait(DsgServer server, uint64_t ticket, double* dist) {
  if (!server || !dist) return GrB_NULL_POINTER;
  GrB_Info soft = GrB_SUCCESS;
  const GrB_Info hard = guarded([&] {
    dsg::sssp::QueryResult result = server->impl.wait(ticket);
    if (!result.ok()) {
      // The query threw on a worker: classify its exception and leave
      // dist untouched, mirroring the batch _opts contract.
      soft = classify(result.exception);
      return;
    }
    std::copy(result.result.dist.begin(), result.result.dist.end(), dist);
    soft = status_code(result.result.status);
  });
  return hard != GrB_SUCCESS ? hard : soft;
}

GrB_Info DsgServer_stats(DsgServer server, DsgServerStats* stats) {
  if (!server || !stats) return GrB_NULL_POINTER;
  return guarded([&] {
    const dsg::serving::ServerStats s = server->impl.stats();
    stats->submitted = s.submitted;
    stats->completed = s.completed;
    stats->deadline_expired = s.deadline_expired;
    stats->cancelled = s.cancelled;
    stats->failed = s.failed;
    stats->cache_hits = s.cache.hits;
    stats->cache_misses = s.cache.misses;
    stats->cache_evictions = s.cache.evictions;
    stats->cache_insert_failures = s.cache_insert_failures;
    stats->cache_entries = s.cache.entries;
    stats->cache_capacity = s.cache.capacity;
    stats->workers = s.workers;
    stats->queue_capacity = s.queue_capacity;
  });
}

GrB_Info DsgServer_free(DsgServer* server) {
  if (!server) return GrB_NULL_POINTER;
  return guarded([&] {
    delete *server;  // ~SsspServer drains and joins the pool
    *server = nullptr;
  });
}

}  // extern "C"
