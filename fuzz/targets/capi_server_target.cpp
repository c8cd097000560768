// capi_server_target.cpp — end-to-end fuzz entry point for the C API:
// DsgServer_new_from_file -> submit -> wait -> free, from fuzzer-chosen
// bytes and query parameters.
//
// Input layout: the first 8 bytes pick the query parameters —
//   bytes 0..3  (u32 le)  source vertex candidate
//   byte  4               algorithm selector (mapped into the enum range,
//                         including AUTO and the rejected CAPI, retired 8
//                         and out-of-range 10 values)
//   byte  5               number of queries to submit (0..7)
//   bytes 6..7            reserved / padding
// — and the remaining bytes are written to a unique temp file and handed
// to DsgServer_new_from_file.  This crosses every trust boundary at once:
// the binary plan loader, the C error-mapping table, and the pool's
// submit/wait lifecycle under adversarial parameters.
//
// Allowed outcomes: any DsgInfo code.  Findings: crash, sanitizer report,
// or a C++ exception escaping the C boundary (the guarded() table should
// have mapped it).
#include "fuzz_targets.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "capi/graphblas.h"

namespace dsg::fuzz {

namespace {

/// Writes bytes to a per-process unique path under the system temp dir.
/// The fuzzer is single-process single-threaded per job, so one scratch
/// file reused across iterations is race-free and avoids inode churn.
std::string scratch_path() {
  static const std::string path = [] {
    const char* tmp = std::getenv("TMPDIR");
    std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    return dir + "/dsg_capi_fuzz_" + std::to_string(getpid()) + ".plan";
  }();
  return path;
}

}  // namespace

int capi_server_target(const std::uint8_t* data, std::size_t size) {
  if (size < 8) return 0;
  std::uint32_t source_raw = 0;
  std::memcpy(&source_raw, data, 4);
  // Map byte 4 across the whole selector range plus the interesting
  // values around it (AUTO=-1 handled; the retired 8 and 10 rejected).
  const int algorithm = static_cast<int>(data[4] % 12) - 1;
  const int num_queries = data[5] % 8;

  const std::string path = scratch_path();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return 0;  // temp dir unwritable: nothing to test
    out.write(reinterpret_cast<const char*>(data + 8),
              static_cast<std::streamsize>(size - 8));
  }

  DsgServer server = nullptr;
  const GrB_Info new_info = DsgServer_new_from_file(
      &server, path.c_str(), static_cast<DsgSsspAlgorithm>(algorithm),
      /*num_workers=*/1, /*queue_capacity=*/4, /*cache_capacity=*/4);
  std::remove(path.c_str());
  if (new_info != GrB_SUCCESS) return 0;  // named rejection — allowed

  // The file loaded, so its header was validated: num_vertices at offset
  // 24 of the plan image is the real dimension (bounded by what the file
  // could back).
  std::uint64_t n = 0;
  std::memcpy(&n, data + 8 + 24, 8);
  std::vector<double> dist(static_cast<std::size_t>(n));

  for (int q = 0; q < num_queries; ++q) {
    // Steer half the sources in range so solves actually run; the rest
    // exercise the out-of-range rejection.
    const GrB_Index source =
        (q % 2 == 0) ? (source_raw % n)
                     : static_cast<GrB_Index>(source_raw) + n;
    std::uint64_t ticket = 0;
    if (DsgServer_submit(server, source, /*control=*/nullptr, &ticket) !=
        GrB_SUCCESS) {
      continue;
    }
    (void)DsgServer_wait(server, ticket, dist.data());
  }

  DsgServerStats stats;
  (void)DsgServer_stats(server, &stats);
  (void)DsgServer_free(&server);
  return 0;
}

}  // namespace dsg::fuzz
