// Good fixture: a serial core off the OpenMP allowlist.  Mentions of
// "#pragma omp parallel" or omp_get_max_threads() in comments and strings
// must NOT trip the openmp-confinement rule, and neither may identifiers
// that merely contain "omp_" (like bottom_up()).
#if defined(DSG_HAVE_OPENMP)
#define FIXTURE_THREADED 1
#endif

namespace fixture {

int bottom_up(int x) { return x + 1; }

const char* note() { return "omp_get_num_threads() is only named here"; }

}  // namespace fixture
