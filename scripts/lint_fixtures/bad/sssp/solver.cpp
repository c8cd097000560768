// Bad fixture: a source-level fan-out in the solver.  solve_batch runs its
// queries one at a time on the solver's Context; concurrent queries are
// serving::SsspServer's job.
#include <cstdint>

namespace fixture {

void solve_all(std::int64_t count, void (*solve_one)(std::int64_t)) {
#pragma omp parallel for schedule(dynamic)
  for (std::int64_t k = 0; k < count; ++k) solve_one(k);
}

}  // namespace fixture
