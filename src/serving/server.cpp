#include "serving/server.hpp"

#include <algorithm>
#include <exception>
#include <new>
#include <utility>

#include "testing/fault_injection.hpp"

namespace dsg::serving {

namespace {

/// Pool-safety gate: workers run algorithm cores concurrently on separate
/// contexts, which every variant supports except kCapi (the paper
/// listing's file-scope operator globals are process-wide).  The
/// internally-threaded variants (kOpenmp, kDeltaSteppingAsync) are legal
/// but oversubscribe a busy pool; callers opt into them explicitly.
void require_pool_safe(sssp::Algorithm algorithm) {
  sssp::algorithm_info(algorithm);  // validates the enum value
  if (algorithm == sssp::Algorithm::kCapi) {
    throw grb::InvalidValue(
        "SsspServer: the capi variant carries process-global operator "
        "state and cannot run on concurrent pool workers");
  }
}

}  // namespace

SsspServer::SsspServer(std::shared_ptr<const GraphPlan> plan,
                       ServerOptions options)
    : plan_(std::move(plan)),
      options_(options),
      cache_(options.cache_capacity) {
  if (!plan_) throw grb::InvalidValue("SsspServer: null plan");
  if (options_.num_workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    options_.num_workers = static_cast<int>(std::max(1u, hw));
  }
  options_.queue_capacity = std::max<std::size_t>(1, options_.queue_capacity);
  if (options_.algorithm) {
    require_pool_safe(*options_.algorithm);
    default_algorithm_ = *options_.algorithm;
  } else {
    default_algorithm_ = sssp::auto_algorithm(*plan_);
  }
  // Front-load every lazily materialized artifact the pool will touch, so
  // workers only ever take the plan's lazy-cache mutex on a fast path.
  sssp::warm_plan(*plan_, default_algorithm_);
  plan_->fingerprint();
  start_workers();
}

SsspServer::SsspServer(grb::Matrix<double> graph, ServerOptions options)
    : SsspServer(std::make_shared<const GraphPlan>(
                     GraphPlan(std::move(graph), options.delta)),
                 options) {}

SsspServer::~SsspServer() { shutdown(); }

void SsspServer::start_workers() {
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void SsspServer::shutdown() {
  {
    std::lock_guard<testing::AuditedMutex> lock(mu_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

SsspServer::Ticket SsspServer::submit(const Query& query) {
  grb::detail::check_index(query.source, plan_->num_vertices(),
                           "SsspServer::submit: source");
  require_pool_safe(query.algorithm.value_or(default_algorithm_));
  testing::fault_point("serving/pool_enqueue", query.source);

  testing::AuditedLock lock(mu_);
  not_full_.wait(lock, [&] {
    return stopping_ || queue_.size() < options_.queue_capacity;
  });
  if (stopping_) {
    throw grb::InvalidValue("SsspServer::submit: server is shutting down");
  }
  const Ticket ticket = next_ticket_++;
  outstanding_.insert(ticket);
  queue_.push_back(Item{ticket, query});
  ++submitted_;
  lock.unlock();
  not_empty_.notify_one();
  return ticket;
}

sssp::QueryResult SsspServer::wait(Ticket ticket) {
  testing::AuditedLock lock(mu_);
  for (;;) {
    auto it = finished_.find(ticket);
    if (it != finished_.end()) {
      sssp::QueryResult result = std::move(it->second);
      finished_.erase(it);
      return result;
    }
    if (outstanding_.find(ticket) == outstanding_.end()) {
      throw grb::InvalidValue(
          "SsspServer::wait: unknown or already-redeemed ticket");
    }
    done_.wait(lock);
  }
}

void SsspServer::worker_loop() {
  // One context per worker: grb::Context is explicitly NOT thread-safe,
  // so each worker owns its warm workspaces for the pool's lifetime.
  grb::Context ctx;
  for (;;) {
    Item item;
    {
      testing::AuditedLock lock(mu_);
      not_empty_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, fully drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();

    sssp::QueryResult result = run_query(item.query, ctx);

    {
      std::lock_guard<testing::AuditedMutex> lock(mu_);
      if (!result.ok()) {
        ++failed_;
      } else {
        switch (result.result.status) {
          case SsspStatus::kComplete: ++completed_; break;
          case SsspStatus::kDeadlineExpired: ++deadline_expired_; break;
          case SsspStatus::kCancelled: ++cancelled_; break;
          case SsspStatus::kFailed: ++failed_; break;  // unreachable: !ok()
        }
      }
      outstanding_.erase(item.ticket);
      finished_.emplace(item.ticket, std::move(result));
    }
    done_.notify_all();
  }
}

sssp::QueryResult SsspServer::run_query(const Query& query,
                                        grb::Context& ctx) {
  sssp::QueryResult out;
  try {
    testing::fault_point("serving/worker_query", query.source);
    const sssp::Algorithm algorithm =
        query.algorithm.value_or(default_algorithm_);
    const sssp::AlgorithmInfo& info = sssp::algorithm_info(algorithm);
    const CacheKey key{plan_->fingerprint(), query.source,
                       static_cast<int>(algorithm), plan_->delta()};
    const bool use_cache = !query.bypass_cache && cache_.capacity() > 0;
    if (use_cache) {
      if (ResultCache::Distances hit = cache_.lookup(key)) {
        // Bit-identical replay of the first computation; instant, so the
        // control's deadline/cancel state is irrelevant.
        out.result.dist = *hit;
        out.result.status = SsspStatus::kComplete;
        return out;
      }
    }
    ExecOptions exec;
    exec.profile = options_.profile;
    exec.control = query.control;
    out.result = info.run(*plan_, ctx, query.source, exec);
    if (use_cache && out.result.status == SsspStatus::kComplete) {
      // Best-effort: a failed insert (e.g. allocation pressure) must not
      // fail the query — the caller still gets its exact distances.
      try {
        testing::fault_point("serving/cache_insert", query.source);
        cache_.insert(key, std::make_shared<const std::vector<double>>(
                               out.result.dist));
      } catch (const std::bad_alloc&) {
        std::lock_guard<testing::AuditedMutex> lock(mu_);
        ++cache_insert_failures_;
      }
    }
  } catch (const std::exception& e) {
    out.exception = std::current_exception();
    out.result = SsspResult{};
    out.result.status = SsspStatus::kFailed;
    out.error = e.what();
  } catch (...) {
    out.exception = std::current_exception();
    out.result = SsspResult{};
    out.result.status = SsspStatus::kFailed;
    out.error = "unknown error";
  }
  return out;
}

ServerStats SsspServer::stats() const {
  std::lock_guard<testing::AuditedMutex> lock(mu_);
  ServerStats out;
  out.submitted = submitted_;
  out.completed = completed_;
  out.deadline_expired = deadline_expired_;
  out.cancelled = cancelled_;
  out.failed = failed_;
  out.cache_insert_failures = cache_insert_failures_;
  out.cache = cache_.stats();
  out.workers = static_cast<std::uint64_t>(options_.num_workers);
  out.queue_capacity = options_.queue_capacity;
  return out;
}

}  // namespace dsg::serving
