#include "sssp/bellman_ford.hpp"

#include <deque>
#include <vector>

#include "testing/fault_injection.hpp"

namespace dsg {

// SPFA worklist.  The plan rejected negative weights at construction, so
// there is no negative cycle to detect.  The control is polled every
// kPollStride dequeues (the loop has no round structure).  dist is
// relax-only, so any interruption cut is a valid upper bound.
SsspResult bellman_ford(const GraphPlan& plan, grb::Context&, Index source,
                        const ExecOptions& exec) {
  const grb::Matrix<double>& a = plan.matrix();
  const Index n = a.nrows();
  grb::detail::check_index(source, n, "sssp: source");
  constexpr std::uint64_t kPollStride = 1024;

  SsspResult result;
  result.dist.assign(n, kInfDist);
  result.dist[source] = 0.0;

  std::deque<Index> queue;
  std::vector<unsigned char> in_queue(n, 0);
  queue.push_back(source);
  in_queue[source] = 1;

  std::uint64_t dequeues = 0;
  SsspStatus status = poll_control(exec.control);
  while (status == SsspStatus::kComplete && !queue.empty()) {
    if (++dequeues % kPollStride == 0) status = poll_control(exec.control);
    testing::fault_point("bellman_ford/relax");
    const Index u = queue.front();
    queue.pop_front();
    in_queue[u] = 0;
    const double du = result.dist[u];

    auto cols = a.row_indices(u);
    auto vals = a.row_values(u);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const Index v = cols[k];
      const double cand = du + vals[k];
      ++result.stats.relax_requests;
      if (cand < result.dist[v]) {
        result.dist[v] = cand;
        if (!in_queue[v]) {
          queue.push_back(v);
          in_queue[v] = 1;
        }
      }
    }
  }
  result.status = status;
  return result;
}

}  // namespace dsg
