#include "sssp/dijkstra.hpp"

#include <queue>
#include <utility>
#include <vector>

#include "testing/fault_injection.hpp"

namespace dsg {

namespace {

/// (distance, vertex) min-heap entry; lazy deletion via distance check.
using HeapEntry = std::pair<double, Index>;

/// Polling cadence: the heap loop has no round structure, so the control
/// is checked every kPollStride settled vertices (cheap enough to keep
/// cancel latency low, rare enough not to tax steady_clock).
constexpr std::uint64_t kPollStride = 1024;

/// Core; inputs must be validated by the caller (the oracle entry
/// validates per call, the plan-based entry relies on the plan's one-time
/// validation).
SsspResult dijkstra_impl(const grb::Matrix<double>& a, Index source,
                         const QueryControl* control) {
  const Index n = a.nrows();
  SsspResult result;
  result.dist.assign(n, kInfDist);

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  result.dist[source] = 0.0;
  heap.push({0.0, source});

  // dist is relax-only, so any interruption cut is a valid upper bound.
  SsspStatus status = poll_control(control);
  while (status == SsspStatus::kComplete && !heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > result.dist[u]) continue;  // stale entry
    ++result.stats.outer_iterations;   // settled vertices
    if (result.stats.outer_iterations % kPollStride == 0) {
      status = poll_control(control);
    }
    testing::fault_point("dijkstra/settle");

    auto cols = a.row_indices(u);
    auto vals = a.row_values(u);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const Index v = cols[k];
      const double cand = d + vals[k];
      ++result.stats.relax_requests;
      if (cand < result.dist[v]) {
        result.dist[v] = cand;
        heap.push({cand, v});
      }
    }
  }
  result.status = status;
  return result;
}

}  // namespace

SsspResult dijkstra(const grb::Matrix<double>& a, Index source) {
  check_sssp_inputs(a, source);
  a.for_each([](Index, Index, const double& w) { check_edge_weight(w); });
  return dijkstra_impl(a, source, nullptr);
}

SsspResult dijkstra(const GraphPlan& plan, grb::Context&, Index source,
                    const ExecOptions& exec) {
  grb::detail::check_index(source, plan.num_vertices(), "sssp: source");
  return dijkstra_impl(plan.matrix(), source, exec.control);
}

}  // namespace dsg
