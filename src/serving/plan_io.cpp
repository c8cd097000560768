// plan_io.cpp — the GraphPlan binary format (see plan_io.hpp for the
// layout).  Loading prefers mmap (the file is written 8-byte aligned so a
// page-aligned mapping serves every section) and falls back to a plain
// read when mapping fails; either way the bytes are copied into owning
// vectors, so the mapping's lifetime ends inside load().
#include "serving/plan_io.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "graphblas/audit.hpp"
#include "testing/fault_injection.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define DSG_PLAN_IO_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace dsg::serving {

namespace {

constexpr char kMagic[8] = {'D', 'S', 'G', 'P', 'L', 'A', 'N', '\n'};
constexpr std::uint32_t kEndianMarker = 0x01020304u;

/// Fixed 96-byte header.  Every field sits at a naturally aligned offset
/// and the sizes sum exactly to sizeof, so there is no padding to leak
/// uninitialized bytes into the checksum or the file.
struct PlanFileHeader {
  char magic[8];                        // offset 0
  std::uint32_t version;                // 8
  std::uint32_t endian;                 // 12
  std::uint32_t index_bits;             // 16: 64 (grb::Index)
  std::uint32_t value_bits;             // 20: 64 (double)
  std::uint64_t num_vertices;           // 24
  std::uint64_t num_edges;              // 32
  double delta;                         // 40
  std::uint64_t delta_was_auto;         // 48: 0/1
  double max_weight;                    // 56
  double min_positive_weight;           // 64
  std::uint64_t max_out_degree;         // 72
  double avg_out_degree;                // 80
  std::uint64_t checksum;               // 88: FNV-1a, checksum field zeroed
};
static_assert(sizeof(PlanFileHeader) == kPlanHeaderBytes,
              "header layout drifted");
static_assert(sizeof(grb::Index) == 8 && sizeof(double) == 8,
              "plan format assumes 64-bit indices and values");

/// FNV-1a over 8-byte words, resumable via the running hash.  Every
/// header field and payload element is 8 bytes wide (the u32 header
/// fields come in pairs), so a word step reads whole elements, one
/// multiply per 8 bytes instead of per byte.  Each step h -> (h ^ w) * p
/// is a bijection of the word for a fixed running hash (xor, then a
/// multiply by an odd constant mod 2^64), so changing any one word always
/// changes the sum.  A ragged tail (only file_checksum over an arbitrary
/// buffer has one) is zero-padded into a last word.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t size) {
  constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * kFnvPrime;
  }
  if (i < size) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, size - i);
    h = (h ^ word) * kFnvPrime;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// The checksum input: the header with its checksum field zeroed, then
/// every payload section in file order.  Catches any single-word
/// corruption in either region (size-class errors are caught earlier by
/// the exact file-size check).
std::uint64_t checksum_file(PlanFileHeader header,
                            const std::vector<const void*>& sections,
                            const std::vector<std::size_t>& sizes) {
  header.checksum = 0;
  std::uint64_t h = fnv1a(kFnvBasis, &header, sizeof(header));
  for (std::size_t k = 0; k < sections.size(); ++k) {
    h = fnv1a(h, sections[k], sizes[k]);
  }
  return h;
}

[[noreturn]] void reject(const std::string& path, const std::string& why) {
  throw grb::InvalidValue("plan load: " + why + " (" + path + ")");
}

void write_bytes(std::ofstream& os, const void* data, std::size_t size) {
  if (size == 0) return;  // an edgeless graph's sections are null pointers
  os.write(static_cast<const char*>(data),
           static_cast<std::streamsize>(size));
}

/// Expected payload byte count for a header, or false when the sum does
/// not fit in uint64 — every multiply and add is overflow-checked, so a
/// forged header can never wrap the total into a value that happens to
/// match the real file size (the classic count*width allocation bug).
/// Runs on pure header arithmetic BEFORE any allocation or file-size
/// comparison.
bool checked_payload_bytes(const PlanFileHeader& h, std::uint64_t& out) {
  std::uint64_t total = 0;
  std::uint64_t ptr_len = 0;
  if (__builtin_add_overflow(h.num_vertices, std::uint64_t{1}, &ptr_len)) {
    return false;
  }
  const std::uint64_t element_counts[] = {
      ptr_len, h.num_edges, h.num_edges,  // row_ptr, col_ind, val
  };
  for (const std::uint64_t count : element_counts) {
    std::uint64_t bytes = 0;
    if (__builtin_mul_overflow(count, std::uint64_t{8}, &bytes) ||
        __builtin_add_overflow(total, bytes, &total)) {
      return false;
    }
  }
  out = total;
  return true;
}

/// Copies the next `count` elements out of the mapped/loaded byte range.
/// The empty case is skipped: an edgeless graph has zero-length sections,
/// and memcpy's arguments must be non-null even for a zero count.
template <typename T>
std::vector<T> take(const unsigned char*& cursor, std::uint64_t count) {
  std::vector<T> out(count);
  if (count != 0) {
    std::memcpy(out.data(), cursor, count * sizeof(T));
    cursor += count * sizeof(T);
  }
  return out;
}

/// Whole-file bytes, mmap first, ifstream fallback.  The deleter-typed
/// unique_ptr keeps the mapping alive exactly as long as parsing needs it.
class FileBytes {
 public:
  explicit FileBytes(const std::string& path) {
#if defined(DSG_PLAN_IO_HAVE_MMAP)
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st = {};
      if (::fstat(fd, &st) == 0 && st.st_size > 0) {
        void* mapped =
            ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                   MAP_PRIVATE, fd, 0);
        if (mapped != MAP_FAILED) {
          data_ = static_cast<const unsigned char*>(mapped);
          size_ = static_cast<std::size_t>(st.st_size);
          mapped_ = mapped;
        }
      }
      ::close(fd);  // the mapping outlives the descriptor
      if (mapped_ != nullptr) return;
    }
#endif
    std::ifstream in(path, std::ios::binary);
    if (!in) reject(path, "cannot open file");
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    in.seekg(0, std::ios::beg);
    fallback_.resize(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char*>(fallback_.data()), size);
    if (!in) reject(path, "read failed");
    data_ = fallback_.data();
    size_ = fallback_.size();
  }

  ~FileBytes() {
#if defined(DSG_PLAN_IO_HAVE_MMAP)
    if (mapped_ != nullptr) ::munmap(mapped_, size_);
#endif
  }

  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;

  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }

 private:
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  void* mapped_ = nullptr;
  std::vector<unsigned char> fallback_;
};

}  // namespace

void PlanIo::save(const GraphPlan& plan, const std::string& path) {
  const grb::Matrix<double>& a = plan.matrix();
  const PlanStats& stats = plan.stats();

  PlanFileHeader header = {};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kPlanFormatVersion;
  header.endian = kEndianMarker;
  header.index_bits = 64;
  header.value_bits = 64;
  header.num_vertices = a.nrows();
  header.num_edges = a.nvals();
  header.delta = plan.delta();
  header.delta_was_auto = plan.delta_was_auto() ? 1 : 0;
  header.max_weight = stats.max_weight;
  header.min_positive_weight = stats.min_positive_weight;
  header.max_out_degree = stats.max_out_degree;
  header.avg_out_degree = stats.avg_out_degree;

  // Sections in file order, every one a span over A's storage.
  const std::vector<const void*> sections = {
      a.row_ptr().data(), a.col_ind().data(), a.raw_values().data()};
  const std::vector<std::size_t> sizes = {a.row_ptr().size_bytes(),
                                          a.col_ind().size_bytes(),
                                          a.raw_values().size_bytes()};
  header.checksum = checksum_file(header, sections, sizes);

  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw grb::InvalidValue("plan save: cannot open " + path +
                            " for writing");
  }
  write_bytes(os, &header, sizeof(header));
  for (std::size_t k = 0; k < sections.size(); ++k) {
    write_bytes(os, sections[k], sizes[k]);
  }
  os.flush();
  if (!os) throw grb::InvalidValue("plan save: write failed on " + path);
}

GraphPlan PlanIo::load(const std::string& path) {
  testing::fault_point("serving/plan_load");
  const FileBytes file(path);
  return load_bytes(file.data(), file.size(), path);
}

std::uint64_t PlanIo::file_checksum(const unsigned char* data,
                                    std::size_t size) {
  if (size < sizeof(PlanFileHeader)) {
    throw grb::InvalidValue(
        "PlanIo::file_checksum: need at least a full header");
  }
  PlanFileHeader header = {};
  std::memcpy(&header, data, sizeof(header));
  return checksum_file(header, {data + sizeof(header)},
                       {size - sizeof(header)});
}

GraphPlan PlanIo::load_bytes(const unsigned char* data, std::size_t size,
                             const std::string& origin) {
  if (size < sizeof(PlanFileHeader)) {
    reject(origin, "truncated header");
  }
  PlanFileHeader header = {};
  std::memcpy(&header, data, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    reject(origin, "bad magic (not a DSG plan file)");
  }
  if (header.endian != kEndianMarker) {
    reject(origin, "endianness mismatch (file written on a foreign-endian "
                   "host)");
  }
  if (header.version != kPlanFormatVersion) {
    reject(origin, "unsupported format version " +
                       std::to_string(header.version) + " (expected " +
                       std::to_string(kPlanFormatVersion) + ")");
  }
  if (header.index_bits != 64 || header.value_bits != 64) {
    reject(origin, "unsupported index/value width");
  }
  if (header.num_vertices == 0) reject(origin, "empty graph");
  if (!(std::isfinite(header.delta) && header.delta > 0.0)) {
    reject(origin, "invalid delta (must be finite and positive)");
  }
  // Overflow-checked size arithmetic, then the exact cross-check against
  // the real byte count: both run before any allocation, so the vectors
  // sized from these counts are always fully backed by `data`.
  std::uint64_t payload_len = 0;
  if (!checked_payload_bytes(header, payload_len)) {
    reject(origin, "header counts overflow the payload size arithmetic");
  }
  if (size - sizeof(PlanFileHeader) != payload_len) {
    reject(origin,
           "file size mismatch (" + std::to_string(size) +
               " bytes, expected " +
               std::to_string(sizeof(PlanFileHeader) + payload_len) +
               " — truncated or trailing garbage)");
  }

  const unsigned char* payload = data + sizeof(PlanFileHeader);
  if (checksum_file(header, {payload},
                    {static_cast<std::size_t>(payload_len)}) !=
      header.checksum) {
    reject(origin, "checksum mismatch");
  }

  // Payload sections, in file order.
  const std::uint64_t n = header.num_vertices;
  const unsigned char* cursor = payload;
  auto row_ptr = take<grb::Index>(cursor, n + 1);
  auto col_ind = take<grb::Index>(cursor, header.num_edges);
  auto val = take<double>(cursor, header.num_edges);

  // The checksum is forgeable (FNV-1a, and the format is documented), so
  // nothing semantic is trusted: weights must be finite and non-negative
  // (a NaN or negative weight would silently corrupt — or hang —
  // delta-stepping), and the CSR structure is fully re-validated below
  // before the plan is handed out.
  for (const double w : val) {
    if (!(std::isfinite(w) && w >= 0.0)) {
      reject(origin, "non-finite or negative edge weight");
    }
  }

  PlanStats stats;
  stats.num_vertices = n;
  stats.num_edges = header.num_edges;
  stats.max_out_degree = header.max_out_degree;
  stats.avg_out_degree = header.avg_out_degree;
  stats.max_weight = header.max_weight;
  stats.min_positive_weight = header.min_positive_weight;

  // Restored construction skips re-deriving the stats scalars (the one
  // O(|E|) scan a warm start amortizes) but NOT the structural audit:
  // check_invariants re-validates the adjacency CSR whether or not
  // DSG_AUDIT_INVARIANTS is compiled in.  The light/heavy split is built
  // from the validated A on first use, as for a fresh plan, so a plan
  // routed to a core that never reads it never pays for it.
  // AuditError normally means "library state corrupt — do not catch", but
  // here the corrupt state came straight from untrusted input, which is
  // precisely a bad-input rejection.
  try {
    grb::Matrix<double> a(n, n);
    a.adopt(std::move(row_ptr), std::move(col_ind), std::move(val));
    GraphPlan plan(GraphPlan::Restored{},
                   std::make_shared<const grb::Matrix<double>>(std::move(a)),
                   header.delta, header.delta_was_auto != 0, stats);
    plan.check_invariants();
    return plan;
  } catch (const grb::audit::AuditError& e) {
    reject(origin, std::string("structurally invalid payload: ") + e.what());
  }
}

}  // namespace dsg::serving

namespace dsg {

// GraphPlan's persistence members live here (not plan.cpp) so the core
// dsg_sssp library carries no file-format code; linking dsg_serving
// provides them.
void GraphPlan::save(const std::string& path) const {
  serving::PlanIo::save(*this, path);
}

GraphPlan GraphPlan::load(const std::string& path) {
  return serving::PlanIo::load(path);
}

}  // namespace dsg
