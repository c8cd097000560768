// Good fixture: this path is on the OpenMP allowlist, so pragmas, the
// runtime header and omp_* calls are legal here.
#include <omp.h>

namespace fixture {

int team_size() {
  int team = 1;
#pragma omp parallel
#pragma omp single
  team = omp_get_num_threads();
  return team;
}

}  // namespace fixture
