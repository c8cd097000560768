// Bad fixture: a core that resolves its own team size instead of calling
// dsg::resolve_num_threads.
#include <omp.h>

namespace fixture {

int threads(int requested) {
  return requested > 0 ? requested : omp_get_max_threads();
}

}  // namespace fixture
