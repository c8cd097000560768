// Bad fixture: a threaded loop in the serial grb:: substrate.
#pragma once

namespace fixture {

inline void scale(double* x, long n) {
#pragma omp parallel for
  for (long i = 0; i < n; ++i) x[i] *= 2.0;
}

}  // namespace fixture
