// bench_e2e.cpp — one workload of the end-to-end SSSP benchmark per process.
//
// Every query goes through the public serving API the way a user calls it:
// generate the graph, build a GraphPlan, start a serving::SsspServer, then
// clients submit() and wait() in a closed loop (each client sends its next
// query only after the previous one returned).
//
// Timed mode (default) runs a fixed number of rounds sized to --seconds.
// One round:
//   1. setup: build a fresh plan and server from the same inputs (timed as
//      setup_s; the cache starts empty, so every round does identical work);
//   2. the workload's fixed query stream, closed loop (timed);
//   3. validation, untimed.
// setup_s is the median over rounds and qps the best round's; latency
// percentiles run over stream positions, each at its best over the rounds.
//
// Traced mode (--traced) runs the same rounds with spans recorded around
// every call into a layer, then probes each layer directly (plan build chain,
// direct registry solves with profiling, a GraphBLAS op replay, cache
// micro-measurements) for the per-layer metrics.  With --trace-dir the
// spans are written as Chrome trace-event JSON plus a self-time table.
//
// Correctness gate: validate_sssp on sampled miss results every round, and
// every source's distances bit-identical across rounds, across cache hits
// and misses, and (traced) against a direct registry solve on a plan that
// went through save/load.  Query failures count toward error_rate and do
// not stop the run; a wrong answer makes the run incorrect (exit 1).
//
// Output: human-readable lines on stderr; the last line of stdout is one
// JSON object that run_benchmark.py parses.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_support/cli.hpp"
#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "graphblas/graphblas.hpp"
#include "serving/result_cache.hpp"
#include "serving/server.hpp"
#include "sssp/plan.hpp"
#include "sssp/solver.hpp"
#include "sssp/validate.hpp"

#if defined(DSG_HAVE_OPENMP)
#include <omp.h>
#endif

namespace dsg::bench {
namespace {

using Clock = std::chrono::steady_clock;
using sssp::Algorithm;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- Workloads -----------------------------------------------------------
//
// Why each exists (see README.md): road is high-diameter, so bucket passes
// dominate and every query misses the cache; social is the largest working
// set with unit weights (Fig. 3's configuration); serving-hot is the only
// concurrent workload and the read side of the cache, cold-started from a
// plan file; fig2-graphblas pins the unfused Fig. 2 GraphBLAS formulation,
// the only workload whose time goes to grb:: kernels.
//
// The graphs and the seeded trial sources follow the GAP Benchmark Suite
// (arXiv:1508.03619).  The serving parameters are not taken from any
// measured traffic: serving-hot's mix (70% of queries from 16 hot sources,
// 2 clients, queue 8) and every cache capacity are synthetic assumptions,
// chosen so that road evicts (40 distinct sources through 32 slots) and
// serving-hot's hot set fits the cache.
struct WorkloadSpec {
  const char* name;
  bool grid;               // grid `size` x `size`, else rmat of scale `size`
  unsigned size;
  int max_weight;          // integer weights 1..max_weight; 0 = unit weights
  std::optional<Algorithm> algorithm;  // nullopt = the server's auto choice
  int clients;
  int workers;
  std::size_t cache_capacity;
  std::size_t queries;     // per round
  std::size_t hot_sources; // 0 = every query has a distinct source
  double hot_share;        // share of queries drawn from the hot set
  bool cold_start;         // setup loads a saved plan file
  /// Nominal seconds per round (4-vCPU Xeon reference host).  A run does
  /// floor(--seconds / round_s) rounds, at most kMaxRounds: a count fixed
  /// by the arguments, so a slow host lengthens the run instead of changing
  /// how many samples it takes.
  double round_s;
};

constexpr std::size_t kMaxRounds = 7;
/// The tail percentile is the highest one with this many samples beyond it.
constexpr double kTailSamplesBeyond = 10.0;
constexpr std::size_t kQueueCapacity = 8;
constexpr double kRmatEdgeFactor = 12.0;

const std::array<WorkloadSpec, 4> kWorkloads{{
    {"road", true, 256, 100, std::nullopt, 1, 1, 32, 40, 0, 0.0, false, 2.9},
    {"social", false, 18, 0, std::nullopt, 1, 1, 32, 60, 0, 0.0, false, 3.4},
    {"serving-hot", false, 16, 0, std::nullopt, 2, 2, 32, 600, 16, 0.7, true,
     1.3},
    {"fig2-graphblas", false, 16, 100, Algorithm::kGraphblas, 1, 1, 32, 40, 0,
     0.0, false, 3.5},
}};

/// --tiny: grid-32 or rmat-10, for the smoke test.
unsigned graph_size(const WorkloadSpec& w, bool tiny) {
  return tiny ? (w.grid ? 32 : 10) : w.size;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool uses_grb_split(Algorithm a) {
  return a == Algorithm::kGraphblas || a == Algorithm::kGraphblasSelect;
}

// --- Seeded inputs -------------------------------------------------------

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t workload_seed(std::uint64_t seed, const char* name) {
  std::uint64_t h = mix64(seed);
  for (const char* p = name; *p != '\0'; ++p) {
    h = mix64(h ^ static_cast<unsigned char>(*p));
  }
  return h;
}

struct Inputs {
  EdgeList edges;
  std::vector<Index> stream;  // one round's queries, in submission order
  /// Stream positions whose result is checked with validate_sssp: the
  /// first occurrences (cache misses) of the first few distinct sources.
  std::vector<unsigned char> validate_at;
  std::vector<Index> probe_sources;  // first distinct sources, in order
  std::size_t distinct_sources = 0;
};

/// Vertices ordered by what drives a query's cost, so that one random pick
/// per equal-size stratum gives every seed the same cost mix: on the grid
/// that is hop eccentricity (closed form); on rmat the giant component in
/// id order (low ids are the hubs).
std::vector<Index> source_strata(const WorkloadSpec& w, const EdgeList& edges,
                                 Index n, unsigned side) {
  std::vector<Index> out;
  if (w.grid) {
    out.resize(n);
    for (Index v = 0; v < n; ++v) out[v] = v;
    const auto ecc = [side](Index v) {
      const Index x = v % side, y = v / side;
      return std::max(x, side - 1 - x) + std::max(y, side - 1 - y);
    };
    std::stable_sort(out.begin(), out.end(),
                     [&](Index a, Index b) { return ecc(a) < ecc(b); });
    return out;
  }
  // normalize() left the edges sorted by source: that is CSR order.
  std::vector<std::size_t> offset(n + 1, 0);
  for (const Edge& e : edges.edges()) ++offset[e.src + 1];
  for (Index v = 0; v < n; ++v) offset[v + 1] += offset[v];
  Index hub = 0;
  for (Index v = 1; v < n; ++v) {
    if (offset[v + 1] - offset[v] > offset[hub + 1] - offset[hub]) hub = v;
  }
  std::vector<unsigned char> seen(n, 0);
  std::vector<Index> queue{hub};
  seen[hub] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Index u = queue[head];
    for (std::size_t k = offset[u]; k < offset[u + 1]; ++k) {
      const Index v = edges.edges()[k].dst;
      if (!seen[v]) {
        seen[v] = 1;
        queue.push_back(v);
      }
    }
  }
  for (Index v = 0; v < n; ++v) {
    if (seen[v]) out.push_back(v);
  }
  return out;
}

std::vector<Index> stratified_pick(const std::vector<Index>& strata,
                                   std::size_t count, std::mt19937_64& rng) {
  if (count > strata.size()) {
    throw grb::InvalidValue("bench_e2e: more sources than candidates");
  }
  std::vector<Index> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t lo = k * strata.size() / count;
    const std::size_t hi = (k + 1) * strata.size() / count;
    std::uniform_int_distribution<std::size_t> pick(lo, hi - 1);
    out.push_back(strata[pick(rng)]);
  }
  return out;
}

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed, bool tiny) {
  const std::uint64_t base = workload_seed(seed, w.name);
  const unsigned size = graph_size(w, tiny);
  Inputs in;
  if (w.grid) {
    in.edges = generate_grid2d(size, size);
  } else {
    in.edges = generate_rmat(
        {.scale = size, .edge_factor = kRmatEdgeFactor, .seed = base});
    in.edges.symmetrize();
  }
  in.edges.normalize();
  if (w.max_weight > 0) {
    assign_integer_weights(in.edges, 1, w.max_weight, mix64(base + 1));
  } else {
    assign_unit_weights(in.edges);
  }

  std::mt19937_64 rng(mix64(base + 2));
  const std::vector<Index> strata =
      source_strata(w, in.edges, in.edges.num_vertices(), size);
  const std::size_t queries = tiny ? std::min<std::size_t>(w.queries, 48)
                                   : w.queries;
  const std::size_t hot_slots =
      w.hot_sources > 0
          ? static_cast<std::size_t>(std::llround(w.hot_share *
                                                  static_cast<double>(queries)))
          : 0;
  const std::size_t unique = queries - hot_slots;
  std::vector<Index> picks =
      stratified_pick(strata, unique + w.hot_sources, rng);
  std::shuffle(picks.begin(), picks.end(), rng);
  in.stream.assign(picks.begin() + static_cast<std::ptrdiff_t>(w.hot_sources),
                   picks.end());
  for (std::size_t k = 0; k < hot_slots; ++k) {
    in.stream.push_back(picks[k % w.hot_sources]);
  }
  std::shuffle(in.stream.begin(), in.stream.end(), rng);

  constexpr std::size_t kValidatedPerRound = 4;
  constexpr std::size_t kProbeSources = 10;
  in.validate_at.assign(in.stream.size(), 0);
  std::unordered_set<Index> seen;
  std::size_t validated = 0;
  for (std::size_t pos = 0; pos < in.stream.size(); ++pos) {
    if (!seen.insert(in.stream[pos]).second) continue;
    if (validated < kValidatedPerRound) {
      in.validate_at[pos] = 1;
      ++validated;
    }
    if (in.probe_sources.size() < kProbeSources) {
      in.probe_sources.push_back(in.stream[pos]);
    }
  }
  in.distinct_sources = seen.size();
  return in;
}

// --- Tracing -------------------------------------------------------------
//
// Spans are recorded by this file around its calls into each layer (the
// library itself is not instrumented), kept in memory, and written out at
// exit.  A span's layer is the part of its name before the first '.'.
struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  std::int64_t query_id = -1;
  int tid = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int record(std::string name, Clock::time_point start, Clock::time_point end,
             int parent = -1, std::int64_t query_id = -1, int tid = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), us(start), us(end), parent, query_id,
                      tid});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Opens a span whose end is filled in by close(); children may name it
  /// as their parent meanwhile.
  int open(std::string name) {
    const Clock::time_point now = Clock::now();
    return record(std::move(name), now, now);
  }
  void close(int id) {
    const double end = us(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_us = end;
  }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Runs `fn` inside a span (when tracing) and returns its milliseconds.
template <typename Fn>
double timed(Tracer* tracer, const char* name, int parent, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  std::forward<Fn>(fn)();
  const Clock::time_point end = Clock::now();
  if (tracer != nullptr) tracer->record(name, start, end, parent);
  return ms_between(start, end);
}

struct SelfTime {
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Self time = a span's duration minus the part its children cover.
std::map<std::string, SelfTime> self_times(const std::vector<SpanRecord>& s) {
  std::vector<double> child_us(s.size(), 0.0);
  for (const SpanRecord& span : s) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] +=
          span.end_us - span.start_us;
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t k = 0; k < s.size(); ++k) {
    const double dur = s[k].end_us - s[k].start_us;
    SelfTime& row = out[s[k].name];
    ++row.count;
    row.total_ms += dur / 1e3;
    row.self_ms += std::max(0.0, dur - child_us[k]) / 1e3;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_trace(const std::filesystem::path& dir, const std::string& stem,
                 const std::vector<SpanRecord>& spans) {
  std::filesystem::create_directories(dir);
  std::ofstream trace(dir / (stem + ".trace.json"));
  trace << std::setprecision(12) << "{\"displayTimeUnit\": \"ms\", "
        << "\"traceEvents\": [\n";
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const SpanRecord& s = spans[k];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    trace << "  {\"name\": \"" << json_escape(s.name) << "\", \"cat\": \""
          << json_escape(layer) << "\", \"ph\": \"X\", \"pid\": 1, "
          << "\"tid\": " << s.tid << ", \"ts\": " << s.start_us
          << ", \"dur\": " << (s.end_us - s.start_us) << ", \"args\": {"
          << "\"id\": " << k << ", \"parent\": " << s.parent
          << ", \"query_id\": " << s.query_id << "}}"
          << (k + 1 < spans.size() ? ",\n" : "\n");
  }
  trace << "]}\n";

  std::ofstream table(dir / (stem + ".selftime.txt"));
  table << std::left << std::setw(28) << "span" << std::right
        << std::setw(10) << "count" << std::setw(14) << "total_ms"
        << std::setw(14) << "self_ms" << "\n"
        << std::fixed << std::setprecision(3);
  for (const auto& [name, row] : self_times(spans)) {
    table << std::left << std::setw(28) << name << std::right
          << std::setw(10) << row.count << std::setw(14) << row.total_ms
          << std::setw(14) << row.self_ms << "\n";
  }
}

// --- Correctness ---------------------------------------------------------

/// Bit-exact fingerprint of a distance vector (four independent lanes so
/// it runs near memory speed inside the client loop).
std::uint64_t hash_distances(const std::vector<double>& dist) {
  std::array<std::uint64_t, 4> lane{
      0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL, 0xa4093822299f31d0ULL,
      0x082efa98ec4e6c89ULL};
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::size_t k = 0;
  for (; k + 4 <= dist.size(); k += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      lane[l] = (lane[l] ^ std::bit_cast<std::uint64_t>(dist[k + l])) * kMul;
    }
  }
  for (; k < dist.size(); ++k) {
    lane[0] = (lane[0] ^ std::bit_cast<std::uint64_t>(dist[k])) * kMul;
  }
  std::uint64_t h = mix64(dist.size());
  for (std::uint64_t l : lane) h = mix64(h ^ l);
  return h;
}

/// First-seen distance fingerprint per source; every later result for the
/// same source (another round, a cache hit, a direct solve) must match it.
class Ledger {
 public:
  void check(Index source, std::uint64_t hash, const char* what) {
    const auto [it, inserted] = by_source_.try_emplace(source, hash);
    if (!inserted && it->second != hash) {
      errors.push_back(std::string(what) + ": source " +
                       std::to_string(source) +
                       " returned distances that differ from an earlier "
                       "result for the same source");
    }
  }

  /// Order-independent digest over every (source, distances) pair, so two
  /// processes with the same seed can compare their answers.
  std::uint64_t digest() const {
    std::uint64_t h = 0;
    for (const auto& [source, hash] : by_source_) h += mix64(source ^ hash);
    return h;
  }

  std::vector<std::string> errors;

 private:
  std::unordered_map<Index, std::uint64_t> by_source_;
};

// --- One round -----------------------------------------------------------

struct RoundResult {
  double setup_s = 0.0;
  double window_s = 0.0;
  double server_start_ms = 0.0;
  // Indexed by stream position; NaN where the query failed.
  std::vector<double> latency_ms;
  std::vector<double> submit_ms;  // time blocked inside submit()
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  serving::ServerStats stats;
  Algorithm algorithm = Algorithm::kFused;
};

struct ClientLog {
  std::vector<std::pair<Index, std::uint64_t>> hashes;
  std::vector<std::pair<Index, std::vector<double>>> kept;  // to validate
  std::vector<std::string> failures;
};

serving::ServerOptions server_options(const WorkloadSpec& w) {
  serving::ServerOptions opt;
  opt.num_workers = w.workers;
  opt.queue_capacity = kQueueCapacity;
  opt.cache_capacity = w.cache_capacity;
  opt.algorithm = w.algorithm;
  return opt;
}

void run_client(serving::SsspServer& server, const Inputs& in, int client,
                int clients, std::int64_t round, RoundResult& out,
                ClientLog& log, Tracer* tracer) {
  for (std::size_t pos = static_cast<std::size_t>(client);
       pos < in.stream.size(); pos += static_cast<std::size_t>(clients)) {
    const Index source = in.stream[pos];
    const std::int64_t query_id =
        round * static_cast<std::int64_t>(in.stream.size()) +
        static_cast<std::int64_t>(pos);
    const Clock::time_point start = Clock::now();
    Clock::time_point submitted = start;
    sssp::QueryResult result;
    try {
      const serving::SsspServer::Ticket ticket = server.submit(source);
      submitted = Clock::now();
      result = server.wait(ticket);
    } catch (const std::exception& e) {
      result.error = e.what();
    }
    const Clock::time_point end = Clock::now();
    if (!result.ok() || result.result.status != SsspStatus::kComplete) {
      log.failures.push_back("query " + std::to_string(query_id) +
                             " (source " + std::to_string(source) + "): " +
                             (result.ok() ? "interrupted" : result.error));
      continue;
    }
    out.latency_ms[pos] = ms_between(start, end);
    out.submit_ms[pos] = ms_between(start, submitted);
    log.hashes.emplace_back(source, hash_distances(result.result.dist));
    if (in.validate_at[pos]) {
      log.kept.emplace_back(source, std::move(result.result.dist));
    }
    if (tracer != nullptr) {
      const int span =
          tracer->record("serving.query", start, end, -1, query_id, client);
      tracer->record("serving.submit", start, submitted, span, query_id,
                     client);
      tracer->record("serving.wait", submitted, end, span, query_id, client);
    }
  }
}

RoundResult run_round(const WorkloadSpec& w, const Inputs& in,
                      const std::string& plan_path, std::int64_t round,
                      Ledger& ledger, Tracer* tracer) {
  RoundResult out;
  const int setup_span = tracer != nullptr ? tracer->open("setup") : -1;
  const Clock::time_point setup_start = Clock::now();
  std::shared_ptr<const GraphPlan> plan;
  if (w.cold_start) {
    timed(tracer, "serving.plan_load", setup_span, [&] {
      plan = std::make_shared<const GraphPlan>(GraphPlan::load(plan_path));
    });
  } else {
    grb::Matrix<double> a;
    timed(tracer, "graph.to_matrix", setup_span,
          [&] { a = in.edges.to_matrix(); });
    timed(tracer, "sssp.plan_build", setup_span, [&] {
      plan = std::make_shared<const GraphPlan>(std::move(a));
    });
  }
  // The server would materialize these itself; calling them first gives
  // the split its own span.
  timed(tracer, "sssp.plan_split", setup_span, [&] { plan->light_heavy(); });
  if (w.algorithm && uses_grb_split(*w.algorithm)) {
    timed(tracer, "sssp.plan_grb_split", setup_span, [&] {
      plan->light_matrix();
      plan->heavy_matrix();
    });
  }
  std::unique_ptr<serving::SsspServer> server;
  out.server_start_ms = timed(tracer, "serving.server_start", setup_span, [&] {
    server = std::make_unique<serving::SsspServer>(plan, server_options(w));
  });
  out.setup_s =
      std::chrono::duration<double>(Clock::now() - setup_start).count();
  if (tracer != nullptr) tracer->close(setup_span);
  out.algorithm = server->default_algorithm();

  constexpr double kFailed = std::numeric_limits<double>::quiet_NaN();
  out.latency_ms.assign(in.stream.size(), kFailed);
  out.submit_ms.assign(in.stream.size(), kFailed);
  std::vector<ClientLog> logs(static_cast<std::size_t>(w.clients));
  const Clock::time_point window_start = Clock::now();
  {
    std::vector<std::thread> clients;
    clients.reserve(logs.size());
    for (int c = 0; c < w.clients; ++c) {
      clients.emplace_back([&, c] {
        run_client(*server, in, c, w.clients, round, out,
                   logs[static_cast<std::size_t>(c)], tracer);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  out.window_s =
      std::chrono::duration<double>(Clock::now() - window_start).count();
  out.stats = server->stats();
  server.reset();

  out.attempted = in.stream.size();
  for (ClientLog& log : logs) {
    out.failed += log.failures.size();
    out.failures.insert(out.failures.end(), log.failures.begin(),
                        log.failures.end());
    for (const auto& [source, hash] : log.hashes) {
      ledger.check(source, hash, "served query");
    }
    for (const auto& [source, dist] : log.kept) {
      const ValidationReport report =
          validate_sssp(plan->matrix(), source, dist);
      if (!report.ok) {
        ledger.errors.push_back("validate_sssp failed for source " +
                                std::to_string(source) + ": " +
                                report.message);
      }
    }
  }
  return out;
}

// --- Statistics ----------------------------------------------------------

// NaN marks a failed query; the statistics skip it.
double median(std::vector<double> v) {
  std::erase_if(v, [](double x) { return std::isnan(x); });
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile: the smallest sample with at least p of the
/// samples at or below it.
double percentile(std::vector<double> v, double p) {
  std::erase_if(v, [](double x) { return std::isnan(x); });
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  double value = 0.0;
  std::string unit;
  double min = 0.0;
  double max = 0.0;
  std::size_t n = 1;
};

using Metrics = std::map<std::string, Metric>;

void put(Metrics& m, const std::string& name, double value,
         const std::string& unit) {
  m[name] = Metric{value, unit, value, value, 1};
}

void put_spread(Metrics& m, const std::string& name, double value,
                const std::string& unit, const std::vector<double>& samples) {
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  m[name] = Metric{value, unit, samples.empty() ? value : *lo,
                   samples.empty() ? value : *hi, samples.size()};
}

std::size_t count_timed(const std::vector<double>& v) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [](double x) { return !std::isnan(x); }));
}

/// The highest percentile with kTailSamplesBeyond of `n` samples beyond it
/// (the median at most): p75 of 40 stream positions, p98.3 of 600.
double tail_quantile(std::size_t n) {
  return std::max(0.5, 1.0 - kTailSamplesBeyond /
                                 static_cast<double>(std::max<std::size_t>(1, n)));
}

/// The end-to-end metrics over a set of rounds.  Every round sends the same
/// stream, and on a shared host interference only ever inflates a sample,
/// in phases that last seconds.  So a query's latency is its stream
/// position's best over the rounds, and qps is the best round's.  The
/// percentiles are over positions: the median, and the highest percentile
/// with 10 positions beyond it (query_tail_ms).  Pooling every round's
/// samples would give p95 its 10 samples, but the pooled p95 tracks how much
/// of the run the host was slow: over ten seeds its quartile spread was 8-20%
/// against 4-8% for these.  The min/max of both percentiles are the same
/// percentiles of single rounds.  `rss_mb` is the peak RSS after the first
/// round: a process's one server lifetime.  Later rounds rebuild the server
/// in a heap shaped by glibc's adaptive mmap threshold, which made the
/// all-rounds peak differ by 7% between seeds.  query_success_ratio is
/// error_rate's complement, so it is never 0.
void end_to_end_metrics(const std::vector<RoundResult>& rounds, double rss_mb,
                        Metrics& m) {
  std::vector<double> setup, qps, p50s, tails;
  std::vector<double> best(rounds.front().latency_ms.size(),
                           std::numeric_limits<double>::quiet_NaN());
  std::size_t attempted = 0, done_total = 0;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    for (std::size_t pos = 0; pos < r.latency_ms.size(); ++pos) {
      const double ms = r.latency_ms[pos];
      if (std::isnan(ms)) continue;
      best[pos] = std::isnan(best[pos]) ? ms : std::min(best[pos], ms);
    }
    const std::size_t done = count_timed(r.latency_ms);
    attempted += r.attempted;
    done_total += done;
    qps.push_back(static_cast<double>(done) / r.window_s);
    p50s.push_back(percentile(r.latency_ms, 0.50));
    tails.push_back(percentile(r.latency_ms, tail_quantile(done)));
  }
  const std::size_t positions = count_timed(best);
  put_spread(m, "setup_s", median(setup), "s", setup);
  put_spread(m, "qps", *std::max_element(qps.begin(), qps.end()), "1/s", qps);
  put_spread(m, "query_p50_ms", percentile(best, 0.50), "ms", p50s);
  put_spread(m, "query_tail_ms", percentile(best, tail_quantile(positions)),
             "ms", tails);
  m["query_p50_ms"].n = m["query_tail_ms"].n = positions;
  put(m, "peak_rss_mb", rss_mb, "MiB");
  put(m, "query_success_ratio",
      static_cast<double>(done_total) /
          static_cast<double>(std::max<std::size_t>(1, attempted)),
      "ratio");
  m["query_success_ratio"].n = attempted;
}

// --- Traced probes -------------------------------------------------------

/// Bytes per stored edge of the plan's arrays, computed from their sizes.
double plan_bytes_per_edge(const GraphPlan& plan, bool grb_split) {
  const auto csr = [](std::size_t ptr, std::size_t ind, std::size_t val) {
    return ptr * sizeof(Index) + ind * sizeof(Index) + val * sizeof(double);
  };
  const grb::Matrix<double>& a = plan.matrix();
  std::size_t bytes =
      csr(a.row_ptr().size(), a.col_ind().size(), a.raw_values().size());
  const detail::LightHeavySplit& s = plan.light_heavy();
  bytes += csr(s.light_ptr.size(), s.light_ind.size(), s.light_val.size());
  bytes += csr(s.heavy_ptr.size(), s.heavy_ind.size(), s.heavy_val.size());
  if (grb_split) {
    for (const grb::Matrix<double>* m :
         {&plan.light_matrix(), &plan.heavy_matrix()}) {
      bytes += csr(m->row_ptr().size(), m->col_ind().size(),
                   m->raw_values().size());
    }
  }
  return static_cast<double>(bytes) /
         static_cast<double>(std::max<std::size_t>(1, a.nvals()));
}

/// Replays the Fig. 2 loop's public GraphBLAS ops over one query's real
/// bucket sets: bucket i's S set is every vertex whose final distance lies
/// in [iΔ, (i+1)Δ).  Each bucket runs the range filter, one light vxm over
/// S, the heavy vxm over S, and the min-merge after each.  Because the
/// distances are final, every merge must leave t unchanged: a fixed-point
/// check on the served answer.
struct ReplayResult {
  double vxm_light_us = 0.0;
  double vxm_heavy_us = 0.0;
  double ewise_min_us = 0.0;
  double apply_range_us = 0.0;
  double dense_writes = 0.0;
  bool fixed_point = true;
};

ReplayResult replay_graphblas(const GraphPlan& plan,
                              const std::vector<double>& dist,
                              std::int64_t query_id, Tracer& tracer) {
  ReplayResult out;
  grb::Context ctx;
  const Index n = plan.num_vertices();
  const double delta = plan.delta();
  const grb::Matrix<double>& al = plan.light_matrix();
  const grb::Matrix<double>& ah = plan.heavy_matrix();
  const auto minplus = grb::min_plus_semiring<double>();

  grb::Vector<double> t(n);
  double far = 0.0;
  for (Index v = 0; v < n; ++v) {
    if (dist[v] != kInfDist) {
      t.set_element(v, dist[v]);
      far = std::max(far, dist[v]);
    }
  }
  grb::Vector<bool> tb(n);
  grb::Vector<double> frontier(n);
  grb::Vector<double> treq(n);
  const int replay = tracer.open("graphblas.replay");
  const auto op = [&](const char* name, double& total_us, auto&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    tracer.record(name, start, end, replay, query_id);
    total_us += ms_between(start, end) * 1e3;
  };
  const auto last = static_cast<std::size_t>(std::floor(far / delta));
  for (std::size_t i = 0; i <= last; ++i) {
    const double lo = static_cast<double>(i) * delta;
    const double hi = lo + delta;
    op("graphblas.apply_range", out.apply_range_us, [&] {
      grb::apply(ctx, tb, grb::NoMask{}, grb::NoAccumulate{},
                 grb::HalfOpenRangePredicate<double>{lo, hi}, t,
                 grb::replace_desc);
    });
    grb::apply(ctx, frontier, tb, grb::NoAccumulate{}, grb::Identity<double>{},
               t, grb::replace_desc);
    if (frontier.nvals() == 0) continue;
    for (const auto* m : {&al, &ah}) {
      op(m == &al ? "graphblas.vxm_light" : "graphblas.vxm_heavy",
         m == &al ? out.vxm_light_us : out.vxm_heavy_us, [&] {
           grb::vxm(ctx, treq, grb::NoMask{}, grb::NoAccumulate{}, minplus,
                    frontier, *m, grb::replace_desc);
         });
      op("graphblas.ewise_min", out.ewise_min_us, [&] {
        grb::ewise_add(ctx, t, grb::NoMask{}, grb::NoAccumulate{},
                       grb::Min<double>{}, t, treq);
      });
    }
  }
  tracer.close(replay);
  out.fixed_point = t.to_dense_array(kInfDist) == dist;
  out.dense_writes = static_cast<double>(ctx.dense_writes);
  return out;
}

void traced_probes(const WorkloadSpec& w, const Inputs& in,
                   const std::vector<RoundResult>& rounds,
                   const std::string& probe_path, Ledger& ledger,
                   Tracer& tracer, Metrics& m) {
  const Algorithm algorithm = rounds.front().algorithm;
  const bool grb_split = uses_grb_split(algorithm);

  // Plan build chain on fresh objects: every call is a first call.
  {
    const int chain = tracer.open("probe.plan_chain");
    grb::Matrix<double> a;
    std::shared_ptr<GraphPlan> plan;
    put(m, "graph.to_matrix_ms",
        timed(&tracer, "graph.to_matrix", chain,
              [&] { a = in.edges.to_matrix(); }),
        "ms");
    put(m, "sssp.plan_build_ms",
        timed(&tracer, "sssp.plan_build", chain,
              [&] { plan = std::make_shared<GraphPlan>(std::move(a)); }),
        "ms");
    put(m, "sssp.plan_split_ms",
        timed(&tracer, "sssp.plan_split", chain,
              [&] { plan->light_heavy(); }),
        "ms");
    put(m, "sssp.plan_grb_split_ms",
        timed(&tracer, "sssp.plan_grb_split", chain,
              [&] {
                plan->light_matrix();
                plan->heavy_matrix();
              }),
        "ms");
    put(m, "sssp.plan_bytes_per_edge", plan_bytes_per_edge(*plan, grb_split),
        "B/edge");
    put(m, "serving.plan_save_ms",
        timed(&tracer, "serving.plan_save", chain,
              [&] { plan->save(probe_path); }),
        "ms");
    put(m, "serving.plan_file_mb",
        static_cast<double>(std::filesystem::file_size(probe_path)) /
            (1024.0 * 1024.0),
        "MiB");
    tracer.close(chain);
    const detail::LightHeavySplit& s = plan->light_heavy();
    put(m, "sssp.delta", plan->delta(), "weight");
    const auto edges = std::max<std::size_t>(1, plan->stats().num_edges);
    put(m, "sssp.light_fraction",
        static_cast<double>(s.light_ind.size()) / static_cast<double>(edges),
        "ratio");
  }
  std::shared_ptr<const GraphPlan> loaded;
  put(m, "serving.plan_load_ms",
      timed(&tracer, "serving.plan_load", -1,
            [&] {
              loaded = std::make_shared<const GraphPlan>(
                  GraphPlan::load(probe_path));
            }),
      "ms");
  std::filesystem::remove(probe_path);
  const GraphPlan& plan = *loaded;
  sssp::warm_plan(plan, algorithm);
  const Index n = plan.num_vertices();

  // Direct registry solves, no server: the sssp core's own phase timers.
  const sssp::AlgorithmInfo& info = sssp::algorithm_info(algorithm);
  grb::Context ctx;
  const ExecOptions exec{.profile = true};
  info.run(plan, ctx, in.probe_sources.front(), exec);  // warm the workspace
  std::vector<double> solve, light, heavy, vec, other;
  double buckets = 0.0, phases = 0.0, relax = 0.0, reached = 0.0,
         occupied = 0.0;
  std::vector<double> first_dist;
  for (std::size_t k = 0; k < in.probe_sources.size(); ++k) {
    const Index source = in.probe_sources[k];
    const Clock::time_point start = Clock::now();
    SsspResult r = info.run(plan, ctx, source, exec);
    const Clock::time_point end = Clock::now();
    tracer.record("sssp.solve", start, end, -1, static_cast<std::int64_t>(k));
    const double ms = ms_between(start, end);
    const SsspStats& st = r.stats;
    solve.push_back(ms);
    light.push_back(st.light_seconds * 1e3);
    heavy.push_back(st.heavy_seconds * 1e3);
    vec.push_back(st.vector_seconds * 1e3);
    other.push_back(ms - 1e3 * (st.light_seconds + st.heavy_seconds +
                                st.vector_seconds));
    buckets += static_cast<double>(st.outer_iterations);
    phases += static_cast<double>(st.light_phases);
    relax += static_cast<double>(st.relax_requests);
    std::unordered_set<std::int64_t> nonempty;
    for (double d : r.dist) {
      if (d == kInfDist) continue;
      reached += 1.0;
      nonempty.insert(static_cast<std::int64_t>(std::floor(d / plan.delta())));
    }
    occupied += static_cast<double>(nonempty.size());
    ledger.check(source, hash_distances(r.dist), "direct solve on loaded plan");
    if (k == 0) first_dist = std::move(r.dist);
  }
  const auto queries = static_cast<double>(in.probe_sources.size());
  put_spread(m, "sssp.solve_ms", median(solve), "ms", solve);
  put(m, "sssp.ns_per_edge",
      median(solve) * 1e6 /
          static_cast<double>(std::max<std::size_t>(1, plan.stats().num_edges)),
      "ns");
  put_spread(m, "sssp.light_ms", median(light), "ms", light);
  put_spread(m, "sssp.heavy_ms", median(heavy), "ms", heavy);
  put_spread(m, "sssp.vector_ms", median(vec), "ms", vec);
  put_spread(m, "sssp.other_ms", median(other), "ms", other);
  put(m, "sssp.buckets", buckets / queries, "count");
  put(m, "sssp.light_phases", phases / queries, "count");
  put(m, "sssp.relax_per_vertex", relax / std::max(1.0, reached), "ratio");
  put(m, "sssp.bucket_occupancy", occupied / std::max(1.0, buckets), "ratio");
  put(m, "sssp.vertex_scans_per_query",
      buckets / queries * static_cast<double>(n), "count");

  // GraphBLAS op replay over the first probe query's bucket sets.
  const ReplayResult replay = replay_graphblas(plan, first_dist, 0, tracer);
  if (!replay.fixed_point) {
    ledger.errors.push_back(
        "graphblas replay: a min-plus relaxation lowered a served distance");
  }
  put(m, "graphblas.vxm_light_us", replay.vxm_light_us, "us");
  put(m, "graphblas.vxm_heavy_us", replay.vxm_heavy_us, "us");
  put(m, "graphblas.ewise_min_us", replay.ewise_min_us, "us");
  put(m, "graphblas.apply_range_us", replay.apply_range_us, "us");
  put(m, "graphblas.dense_writes", replay.dense_writes, "count");

  // Serving overhead on hits: one source, repeated, warm cache.
  {
    constexpr int kHits = 200;
    serving::SsspServer server(loaded, server_options(w));
    const Index source = in.probe_sources.front();
    const std::uint64_t expected = hash_distances(first_dist);
    server.wait(server.submit(source));
    std::vector<double> hits;
    const int span = tracer.open("probe.cache_hits");
    for (int k = 0; k < kHits; ++k) {
      const Clock::time_point start = Clock::now();
      const sssp::QueryResult r = server.wait(server.submit(source));
      const Clock::time_point end = Clock::now();
      tracer.record("serving.query", start, end, span, k);
      hits.push_back(ms_between(start, end) * 1e3);
      if (!r.ok() || hash_distances(r.result.dist) != expected) {
        ledger.errors.push_back("cache hit differs from the direct solve");
        break;
      }
    }
    tracer.close(span);
    put_spread(m, "serving.hit_latency_us", median(hits), "us", hits);
  }

  // The server's insert path on a standalone cache: copy the vector into a
  // shared entry, insert, evict at capacity.
  {
    constexpr int kInserts = 200;
    serving::ResultCache cache(w.cache_capacity);
    std::vector<double> inserts;
    const int span = tracer.open("probe.cache_insert");
    for (int k = 0; k < kInserts; ++k) {
      const serving::CacheKey key{plan.fingerprint(), static_cast<Index>(k),
                                  static_cast<int>(algorithm), plan.delta()};
      const Clock::time_point start = Clock::now();
      cache.insert(key,
                   std::make_shared<const std::vector<double>>(first_dist));
      const Clock::time_point end = Clock::now();
      tracer.record("serving.cache_insert", start, end, span, k);
      inserts.push_back(ms_between(start, end) * 1e3);
    }
    tracer.close(span);
    put_spread(m, "serving.cache_insert_us", median(inserts), "us", inserts);
  }

  // Every round does the same work: counts come from the first round,
  // times from all of them.
  std::vector<double> starts, submits;
  for (const RoundResult& r : rounds) {
    starts.push_back(r.server_start_ms);
    submits.insert(submits.end(), r.submit_ms.begin(), r.submit_ms.end());
  }
  const serving::ResultCacheStats& cs = rounds.front().stats.cache;
  put_spread(m, "serving.server_start_ms", median(starts), "ms", starts);
  put(m, "serving.submit_blocked_ms_p95", percentile(submits, 0.95), "ms");
  put(m, "serving.cache_hit_ratio",
      static_cast<double>(cs.hits) /
          static_cast<double>(std::max<std::uint64_t>(1, cs.hits + cs.misses)),
      "ratio");
  put(m, "serving.cache_evictions", static_cast<double>(cs.evictions),
      "count");
}

// --- Output --------------------------------------------------------------

void print_json(std::ostream& os, const std::string& workload,
                const char* mode, std::uint64_t seed,
                const std::vector<RoundResult>& rounds,
                std::size_t attempted, std::size_t failed,
                const std::vector<std::string>& errors,
                const std::vector<std::string>& failures,
                std::uint64_t digest, const Metrics& metrics,
                const std::map<std::string, std::string>& config) {
  os << "{\"workload\": \"" << workload << "\", \"mode\": \"" << mode
     << "\", \"seed\": " << seed << ", \"correct\": "
     << (errors.empty() ? "true" : "false") << ", \"rounds\": ["
     << std::setprecision(6);
  for (std::size_t k = 0; k < rounds.size(); ++k) {
    const RoundResult& r = rounds[k];
    os << (k ? ", " : "") << "{\"setup_s\": " << r.setup_s
       << ", \"window_s\": " << r.window_s
       << ", \"p50_ms\": " << percentile(r.latency_ms, 0.5) << "}";
  }
  os << std::setprecision(std::numeric_limits<double>::max_digits10)
     << "], \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"digest\": \"" << std::hex << digest << std::dec << "\"";
  const auto list = [&os](const char* key,
                          const std::vector<std::string>& items) {
    os << ", \"" << key << "\": [";
    for (std::size_t k = 0; k < items.size() && k < 20; ++k) {
      os << (k ? ", " : "") << "\"" << json_escape(items[k]) << "\"";
    }
    os << "]";
  };
  list("errors", errors);
  list("failures", failures);
  os << ", \"config\": {";
  bool first = true;
  for (const auto& [key, value] : config) {
    os << (first ? "" : ", ") << "\"" << key << "\": \"" << json_escape(value)
       << "\"";
    first = false;
  }
  os << "}, \"metrics\": {";
  first = true;
  for (const auto& [name, metric] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << metric.value << ", \"unit\": \"" << metric.unit
       << "\", \"min\": " << metric.min << ", \"max\": " << metric.max
       << ", \"n\": " << metric.n << "}";
    first = false;
  }
  os << "}}\n";
}

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const WorkloadSpec* w = find_workload(args.get("workload"));
  if (w == nullptr) {
    std::cerr << "usage: bench_e2e --workload "
                 "road|social|serving-hot|fig2-graphblas [--seed N] "
                 "[--seconds S] [--traced] [--trace-dir DIR] "
                 "[--work-dir DIR] [--tiny]\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const bool tiny = args.has("tiny");
  const bool traced = args.has("traced");
  const double seconds = args.get_double("seconds", 25.0);
  const auto fit = static_cast<std::size_t>(
      std::max(0.0, std::floor(seconds / w->round_s)));
  const std::size_t round_count =
      tiny ? 1 : std::clamp<std::size_t>(fit, 1, kMaxRounds);
  const std::filesystem::path work_dir = args.get("work-dir", ".");
  std::filesystem::create_directories(work_dir);
  const std::string stem = std::string(w->name) + "-seed" +
                           std::to_string(seed) + (traced ? "-traced" : "");
  const std::string plan_path = (work_dir / (stem + ".plan")).string();

  // Input generation and the cold-start plan file are untimed.
  const Inputs in = make_inputs(*w, seed, tiny);
  if (w->cold_start) {
    GraphPlan(in.edges.to_matrix()).save(plan_path);
  }

  std::map<std::string, std::string> config;
  const unsigned size = graph_size(*w, tiny);
  config["graph"] = w->grid ? "grid-" + std::to_string(size) + "x" +
                                  std::to_string(size)
                            : "rmat-" + std::to_string(size);
  config["weights"] =
      w->max_weight > 0 ? "1.." + std::to_string(w->max_weight) : "unit";
  config["vertices"] = std::to_string(in.edges.num_vertices());
  config["edges"] = std::to_string(in.edges.num_edges());
  config["clients"] = std::to_string(w->clients);
  config["workers"] = std::to_string(w->workers);
  config["queries_per_round"] = std::to_string(in.stream.size());
  config["distinct_sources"] = std::to_string(in.distinct_sources);
  {
    std::ostringstream tail;
    tail << "p" << std::setprecision(3)
         << 100.0 * tail_quantile(in.stream.size()) << " of "
         << in.stream.size() << " positions";
    config["query_tail"] = tail.str();
  }
#if defined(DSG_HAVE_OPENMP)
  config["omp_threads"] = std::to_string(omp_get_max_threads());
#else
  config["omp_threads"] = "0";
#endif

  Ledger ledger;
  Metrics metrics;
  std::vector<RoundResult> rounds;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const auto absorb = [&](RoundResult r) {
    attempted += r.attempted;
    failed += r.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    rounds.push_back(std::move(r));
  };

  // The traced run makes the same rounds as the timed one, so the
  // difference in their end-to-end metrics is the tracing overhead.
  std::optional<Tracer> tracer;
  if (traced) tracer.emplace();
  double rss_mb = 0.0;
  for (std::size_t r = 0; r < round_count; ++r) {
    absorb(run_round(*w, in, plan_path, static_cast<std::int64_t>(r), ledger,
                     tracer ? &*tracer : nullptr));
    if (r == 0) rss_mb = peak_rss_mb();
  }
  end_to_end_metrics(rounds, rss_mb, metrics);
  if (tracer) {
    traced_probes(*w, in, rounds, (work_dir / (stem + "-probe.plan")).string(),
                  ledger, *tracer, metrics);
    if (args.has("trace-dir")) {
      write_trace(args.get("trace-dir"), std::string(w->name), tracer->spans());
    }
  }
  if (w->cold_start) std::filesystem::remove(plan_path);
  config["algorithm"] = sssp::algorithm_info(rounds.front().algorithm).name;

  std::cerr << w->name << " (" << (traced ? "traced" : "timed") << ", seed "
            << seed << "): " << rounds.size() << " round(s), " << attempted
            << " queries, " << failed << " failed\n";
  for (const std::string& e : ledger.errors) {
    std::cerr << "  ERROR: " << e << "\n";
  }
  print_json(std::cout, w->name, traced ? "traced" : "timed", seed, rounds,
             attempted, failed, ledger.errors, failures,
             ledger.digest(), metrics, config);
  return ledger.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace dsg::bench

int main(int argc, char** argv) {
  try {
    return dsg::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 3;
  }
}
