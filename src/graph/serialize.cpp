#include "graph/serialize.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <omp.h>
#include <unistd.h>

#include "util/failpoint.hpp"
#include "util/mmap_file.hpp"

namespace bmh {

namespace {

constexpr std::size_t kAlign = 8;

constexpr std::size_t align_up(std::size_t n) noexcept {
  return (n + (kAlign - 1)) & ~(kAlign - 1);
}

struct Layout {
  std::size_t key_offset;
  std::size_t row_ptr_offset;
  std::size_t col_idx_offset;
  std::size_t col_ptr_offset;
  std::size_t row_idx_offset;
  std::size_t total_bytes;
};

Layout compute_layout(std::uint64_t num_rows, std::uint64_t num_cols,
                      std::uint64_t num_edges, std::size_t key_bytes) noexcept {
  Layout l{};
  l.key_offset = sizeof(GraphFileHeader);
  l.row_ptr_offset = align_up(l.key_offset + key_bytes);
  l.col_idx_offset = l.row_ptr_offset + (num_rows + 1) * sizeof(eid_t);
  l.col_ptr_offset = align_up(l.col_idx_offset + num_edges * sizeof(vid_t));
  l.row_idx_offset = l.col_ptr_offset + (num_cols + 1) * sizeof(eid_t);
  l.total_bytes = align_up(l.row_idx_offset + num_edges * sizeof(vid_t));
  return l;
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("graph file '" + path + "': " + what);
}

/// Load-side rejection: the mapped content itself is bad (vs. fail(),
/// which reports I/O trouble) — the error class GraphStore's self-heal
/// keys off.
[[noreturn]] void reject(const std::string& path, const std::string& what) {
  throw GraphFileError("graph file '" + path + "': " + what);
}

/// Streams file pieces in order while accumulating the payload CRC; padding
/// between pieces is zeros and is checksummed like any other byte.
class PieceWriter {
public:
  explicit PieceWriter(std::ofstream& out) : out_(&out) {}

  void write(const void* data, std::size_t bytes) {
    if (bytes == 0) return;
    out_->write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
    crc_ = crc32_ieee(data, bytes, crc_);
    offset_ += bytes;
  }

  void pad_to(std::size_t offset) {
    static constexpr char kZeros[kAlign] = {};
    while (offset_ < offset) {
      const std::size_t n = std::min(offset - offset_, sizeof(kZeros));
      write(kZeros, n);
    }
  }

  [[nodiscard]] std::uint32_t crc() const noexcept { return crc_; }
  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

private:
  std::ofstream* out_;
  std::uint32_t crc_ = 0;
  std::size_t offset_ = sizeof(GraphFileHeader);
};

// Slicing-by-16 (Kounavis and Berry, ISCC 2005). kCrcTables[0] is the
// classic byte table of the reflected polynomial; kCrcTables[k][b] is the
// CRC contribution of byte b followed by k zero bytes, so one step folds 16
// input bytes with 16 independent lookups instead of a 16-long chain.
constexpr auto kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 16> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ ((c & 1u) ? 0xEDB88320u : 0u);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}();

// The word loop reads the stream's first byte from a word's low bits.
static_assert(std::endian::native == std::endian::little,
              "crc32_ieee's slicing loop assumes a little-endian host");

std::uint64_t load_u64(const unsigned char* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// The slicing-by-16 loop over one contiguous run, continuing `seed`.
std::uint32_t crc32_serial(const unsigned char* bytes, std::size_t size,
                           std::uint32_t seed) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t crc = ~seed;
  for (; size >= 16; size -= 16, bytes += 16) {
    const std::uint64_t a = load_u64(bytes) ^ crc;
    const std::uint64_t b = load_u64(bytes + 8);
    crc = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^ t[13][(a >> 16) & 0xFFu] ^
          t[12][(a >> 24) & 0xFFu] ^ t[11][(a >> 32) & 0xFFu] ^
          t[10][(a >> 40) & 0xFFu] ^ t[9][(a >> 48) & 0xFFu] ^ t[8][a >> 56] ^
          t[7][b & 0xFFu] ^ t[6][(b >> 8) & 0xFFu] ^ t[5][(b >> 16) & 0xFFu] ^
          t[4][(b >> 24) & 0xFFu] ^ t[3][(b >> 32) & 0xFFu] ^
          t[2][(b >> 40) & 0xFFu] ^ t[1][(b >> 48) & 0xFFu] ^ t[0][b >> 56];
  }
  for (; size > 0; --size, ++bytes) crc = (crc >> 8) ^ t[0][(crc ^ *bytes) & 0xFFu];
  return ~crc;
}

// Joining two CRCs, after zlib's crc32_combine: CRC(A || B) is CRC(A)
// multiplied by x^(8 |B|) modulo the polynomial, plus CRC(B), in GF(2)
// with the reflected bit order (bit 31 is x^0).
constexpr std::uint32_t kCrcPoly = 0xEDB88320u;

constexpr std::uint32_t multiply_mod_poly(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1u) != 0 ? (b >> 1) ^ kCrcPoly : b >> 1;
  }
  return product;
}

/// kCrcPowers[k] is x^(2^k) modulo the polynomial.
constexpr auto kCrcPowers = [] {
  std::array<std::uint32_t, 64> p{};
  p[0] = 1u << 30;  // x^1
  for (std::size_t k = 1; k < p.size(); ++k) p[k] = multiply_mod_poly(p[k - 1], p[k - 1]);
  return p;
}();

/// CRC of A || B from crc_a, crc_b and B's length in bytes.
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::size_t length_b) noexcept {
  std::uint32_t shift = 1u << 31;  // x^0
  std::uint64_t bits = static_cast<std::uint64_t>(length_b) << 3;
  for (std::size_t k = 0; bits != 0; bits >>= 1, ++k)
    if ((bits & 1u) != 0) shift = multiply_mod_poly(kCrcPowers[k], shift);
  return multiply_mod_poly(shift, crc_a) ^ crc_b;
}

/// Buffers this long or longer checksum on the ambient OpenMP team.
constexpr std::size_t kParallelCrcBytes = std::size_t{1} << 18;
constexpr std::size_t kMaxCrcChunks = 64;

} // namespace

std::uint32_t crc32_ieee(const void* data, std::size_t size,
                         std::uint32_t seed) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  // One chunk per thread, each at least a quarter of the threshold.
  const int chunks =
      size < kParallelCrcBytes
          ? 1
          : static_cast<int>(std::min<std::size_t>(
                {static_cast<std::size_t>(omp_get_max_threads()), kMaxCrcChunks,
                 size / (kParallelCrcBytes / 4)}));
  if (chunks <= 1) return crc32_serial(bytes, size, seed);
  const auto chunk_begin = [size, chunks](int c) {
    return size * static_cast<std::size_t>(c) / static_cast<std::size_t>(chunks);
  };
  // Each chunk is checksummed from a zero seed but the first; the joins
  // give back the serial value bit for bit.
  std::array<std::uint32_t, kMaxCrcChunks> crcs{};
#pragma omp parallel for schedule(static) num_threads(chunks)
  for (int c = 0; c < chunks; ++c)
    crcs[static_cast<std::size_t>(c)] = crc32_serial(
        bytes + chunk_begin(c), chunk_begin(c + 1) - chunk_begin(c), c == 0 ? seed : 0);
  std::uint32_t crc = crcs[0];
  for (int c = 1; c < chunks; ++c)
    crc = crc32_combine(crc, crcs[static_cast<std::size_t>(c)],
                        chunk_begin(c + 1) - chunk_begin(c));
  return crc;
}

std::size_t serialized_graph_bytes(const BipartiteGraph& graph,
                                   std::string_view key) noexcept {
  return compute_layout(static_cast<std::uint64_t>(graph.num_rows()),
                        static_cast<std::uint64_t>(graph.num_cols()),
                        static_cast<std::uint64_t>(graph.num_edges()), key.size())
      .total_bytes;
}

namespace {

/// fsync `path` (a file or a directory), reporting failure through fail().
/// Directories need O_DIRECTORY-style open-for-read; O_RDONLY covers both.
void sync_path(const std::string& target, const std::string& reported_path) {
  BMH_FAILPOINT("serialize.save.fsync");
  const int fd = ::open(target.c_str(), O_RDONLY);
  if (fd < 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): copied straight into a string
    const std::string reason = std::strerror(errno);
    fail(reported_path, "cannot open '" + target + "' for fsync: " + reason);
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): copied straight into a string
    const std::string reason = std::strerror(saved_errno);
    fail(reported_path, "fsync of '" + target + "' failed: " + reason);
  }
}

} // namespace

void save_graph(const BipartiteGraph& graph, const std::string& path,
                std::string_view key, bool sync) {
  const Layout layout =
      compute_layout(static_cast<std::uint64_t>(graph.num_rows()),
                     static_cast<std::uint64_t>(graph.num_cols()),
                     static_cast<std::uint64_t>(graph.num_edges()), key.size());

  // An injected failure here models an unwritable device before any bytes
  // land — no temporary is left behind.
  BMH_FAILPOINT("serialize.save.write");

  // Process-unique temporary in the target directory so the final rename is
  // atomic (same filesystem) and concurrent spillers of one path never
  // interleave bytes.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));

  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) fail(path, "cannot open temporary '" + tmp + "' for writing");

    GraphFileHeader header{};
    std::memcpy(header.magic, kGraphFileMagic, sizeof(header.magic));
    header.version = kGraphFileVersion;
    header.header_bytes = sizeof(GraphFileHeader);
    header.sizeof_vid = sizeof(vid_t);
    header.sizeof_eid = sizeof(eid_t);
    header.num_rows = graph.num_rows();
    header.num_cols = graph.num_cols();
    header.num_edges = graph.num_edges();
    header.file_bytes = layout.total_bytes;
    header.key_bytes = static_cast<std::uint32_t>(key.size());

    // The payload streams in file order while its CRC accumulates; the
    // header (which records that CRC) is rewritten in place afterwards.
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    PieceWriter body(out);
    if (!key.empty()) body.write(key.data(), key.size());
    body.pad_to(layout.row_ptr_offset);
    body.write(graph.row_ptr().data(), graph.row_ptr().size_bytes());
    body.write(graph.col_idx().data(), graph.col_idx().size_bytes());
    body.pad_to(layout.col_ptr_offset);
    body.write(graph.col_ptr().data(), graph.col_ptr().size_bytes());
    body.write(graph.row_idx().data(), graph.row_idx().size_bytes());
    body.pad_to(layout.total_bytes);

    header.payload_crc32 = body.crc();
    out.seekp(0);
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      fail(path, "write to temporary '" + tmp + "' failed");
    }
  }

  // Durability order: file bytes reach the platter before the rename can
  // publish them, and the directory entry after it — the classic
  // write/fsync/rename/fsync-dir sequence. Without `sync`, the rename is
  // still atomic against this process crashing; only power loss can lose
  // the (complete, CRC-guarded) bytes.
  if (sync) {
    try {
      sync_path(tmp, path);
    } catch (...) {
      std::remove(tmp.c_str());
      throw;
    }
  }

  try {
    BMH_FAILPOINT("serialize.save.rename");
  } catch (...) {
    // Mirror the real rename-failure cleanup: never leave the temporary.
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): copied straight into a string
    const std::string reason = std::strerror(errno);
    std::remove(tmp.c_str());
    fail(path, "rename from temporary failed: " + reason);
  }

  if (sync) {
    const std::size_t slash = path.find_last_of('/');
    sync_path(slash == std::string::npos ? "." : path.substr(0, slash), path);
  }
}

BipartiteGraph load_graph_mapped(const std::string& path, std::string* key_out) {
  // Plain runtime_error class when armed: transient I/O, never self-heal.
  BMH_FAILPOINT("serialize.load");
  auto mapped = std::make_shared<const MappedFile>(path);
  const std::byte* base = mapped->data();
  const std::size_t size = mapped->size();

  if (size < sizeof(GraphFileHeader)) reject(path, "truncated header");
  GraphFileHeader header;
  std::memcpy(&header, base, sizeof(header));

  if (std::memcmp(header.magic, kGraphFileMagic, sizeof(header.magic)) != 0)
    reject(path, "bad magic (not a bmh graph file)");
  if (header.version != kGraphFileVersion)
    reject(path, "unsupported format version " + std::to_string(header.version));
  if (header.header_bytes != sizeof(GraphFileHeader))
    reject(path, "header size mismatch");
  if (header.sizeof_vid != sizeof(vid_t) || header.sizeof_eid != sizeof(eid_t))
    reject(path, "integer width mismatch (file written by an incompatible build)");
  if (header.num_rows < 0 || header.num_cols < 0 || header.num_edges < 0 ||
      header.num_rows > std::numeric_limits<vid_t>::max() ||
      header.num_cols > std::numeric_limits<vid_t>::max())
    reject(path, "dimension out of range");
  // Bound every count by what the mapped bytes could possibly hold *before*
  // the layout arithmetic: a forged astronomical num_edges must be rejected
  // here, not wrap size_t in compute_layout, sail past the size/CRC checks
  // and crash validation reading beyond the mapping.
  if (static_cast<std::uint64_t>(header.num_edges) > size / sizeof(vid_t) ||
      static_cast<std::uint64_t>(header.num_rows) >= size / sizeof(eid_t) ||
      static_cast<std::uint64_t>(header.num_cols) >= size / sizeof(eid_t) ||
      header.key_bytes > size)
    reject(path, "header counts exceed file size");

  const Layout layout = compute_layout(static_cast<std::uint64_t>(header.num_rows),
                                       static_cast<std::uint64_t>(header.num_cols),
                                       static_cast<std::uint64_t>(header.num_edges),
                                       header.key_bytes);
  if (header.file_bytes != layout.total_bytes)
    reject(path, "header counts disagree with recorded file size");
  if (size != layout.total_bytes)
    reject(path, "truncated or oversized file (" + std::to_string(size) + " bytes, " +
                   std::to_string(layout.total_bytes) + " expected)");

  const std::uint32_t crc =
      crc32_ieee(base + sizeof(GraphFileHeader), size - sizeof(GraphFileHeader));
  // The corrupt action forges a mismatch: a GraphFileError rejection, the
  // content-error class GraphStore answers with unlink-and-rebuild.
  if (crc != header.payload_crc32 || BMH_FAILPOINT_CORRUPT("store.load.crc"))
    reject(path, "payload CRC mismatch");

  if (key_out != nullptr)
    key_out->assign(reinterpret_cast<const char*>(base + layout.key_offset),
                    header.key_bytes);

  // Views into the mapping — the zero-copy payoff. Offsets are 8-aligned by
  // construction and mmap returns page-aligned memory, so the casts are safe.
  BipartiteGraph::ExternalStorage storage;
  storage.row_ptr = {reinterpret_cast<const eid_t*>(base + layout.row_ptr_offset),
                     static_cast<std::size_t>(header.num_rows) + 1};
  storage.col_idx = {reinterpret_cast<const vid_t*>(base + layout.col_idx_offset),
                     static_cast<std::size_t>(header.num_edges)};
  storage.col_ptr = {reinterpret_cast<const eid_t*>(base + layout.col_ptr_offset),
                     static_cast<std::size_t>(header.num_cols) + 1};
  storage.row_idx = {reinterpret_cast<const vid_t*>(base + layout.row_idx_offset),
                     static_cast<std::size_t>(header.num_edges)};
  storage.keepalive = mapped;
  storage.resident_bytes = size;

  try {
    return BipartiteGraph(static_cast<vid_t>(header.num_rows),
                          static_cast<vid_t>(header.num_cols), std::move(storage));
  } catch (const std::invalid_argument& e) {
    // Only the validation error type: a bad_alloc from validation scratch
    // is transient memory pressure, not bad content, and must not become a
    // GraphFileError (which would let GraphStore unlink a good file).
    reject(path, std::string("invalid graph contents: ") + e.what());
  }
}

} // namespace bmh
