#pragma once
/// \file serialize.hpp
/// \brief Versioned, checksummed binary graph files + zero-copy mmap loads.
///
/// The persistent tier of the graph cache (engine/graph_store.hpp) needs a
/// CSR on disk that a restarted process can serve without rebuilding. The
/// format therefore stores *both* orientations — CSR and CSC, exactly the
/// four arrays a BipartiteGraph views — with every array 8-byte aligned, so
/// `load_graph_mapped` can hand `std::span`s straight into the mapped file:
/// no edge-array copies, no CSC reconstruction, first-touch paging by the
/// kernel.
///
/// Layout (little-endian, native integer widths — the header records
/// sizeof(vid_t)/sizeof(eid_t) and the loader refuses mismatches, so a file
/// is portable exactly between builds with the same ABI):
///
///   GraphFileHeader                  (64 bytes, see below)
///   key bytes                        (key_bytes, the canonical graph key)
///   padding to 8                     (zeros)
///   row_ptr  [num_rows+1] x eid_t
///   col_idx  [num_edges]  x vid_t    + padding to 8
///   col_ptr  [num_cols+1] x eid_t
///   row_idx  [num_edges]  x vid_t    + padding to 8
///
/// `payload_crc32` covers every byte after the header; the header itself is
/// cross-checked structurally (magic, version, widths, and the file size
/// derived from the counts must all agree). The loader rejects — naming the
/// offending path — rather than ever serving a truncated, corrupted or
/// dimensionally inconsistent file; on top of that the BipartiteGraph
/// external-storage constructor re-validates both orientations, so even a
/// CRC-valid forgery cannot produce an out-of-contract graph.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "graph/bipartite_graph.hpp"

namespace bmh {

/// Thrown by load_graph_mapped when the file *content* is bad — truncation,
/// bad magic, version/width mismatch, CRC failure, invalid arrays. Distinct
/// from the plain std::runtime_error a transient I/O failure raises (open/
/// stat/mmap errors), so callers like GraphStore can safely delete a
/// provably-bad file without destroying valid ones under fd pressure.
struct GraphFileError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `size` bytes,
/// bit-identical to the classic byte-at-a-time table loop. Computed by
/// slicing-by-16: 16 bytes per step as two little-endian 8-byte loads (any
/// alignment) and 16 table lookups, then a byte loop for the tail; the build
/// requires a little-endian host. Chainable at any split point: pass the
/// previous return value as `seed` to continue a running checksum. Exposed
/// so tests and external tools can validate or (deliberately) forge graph
/// files.
[[nodiscard]] std::uint32_t crc32_ieee(const void* data, std::size_t size,
                                       std::uint32_t seed = 0) noexcept;

inline constexpr char kGraphFileMagic[8] = {'B', 'M', 'H', 'G', 'R', 'P', 'H', '1'};
inline constexpr std::uint32_t kGraphFileVersion = 1;

/// The on-disk header. Fixed 64 bytes; all fields validated on load.
struct GraphFileHeader {
  char magic[8];               ///< kGraphFileMagic
  std::uint32_t version;       ///< kGraphFileVersion
  std::uint32_t header_bytes;  ///< sizeof(GraphFileHeader)
  std::uint32_t sizeof_vid;    ///< sizeof(vid_t) of the writing build
  std::uint32_t sizeof_eid;    ///< sizeof(eid_t) of the writing build
  std::int64_t num_rows;
  std::int64_t num_cols;
  std::int64_t num_edges;
  std::uint64_t file_bytes;    ///< total file size, header included
  std::uint32_t key_bytes;     ///< canonical key text length (0 = keyless)
  std::uint32_t payload_crc32; ///< CRC-32 of bytes [header_bytes, file_bytes)
};
static_assert(sizeof(GraphFileHeader) == 64, "on-disk header must stay 64 bytes");

/// The exact file size save_graph(graph, ..., key) will produce.
[[nodiscard]] std::size_t serialized_graph_bytes(const BipartiteGraph& graph,
                                                 std::string_view key) noexcept;

/// Writes `graph` (CSR + CSC) to `path` atomically: the bytes go to a
/// process-unique temporary in the same directory, then rename into place,
/// so readers never observe a half-written file and concurrent writers of
/// the same path both leave a complete one. `key` is embedded verbatim (the
/// store's collision guard). With `sync`, the temporary's bytes and the
/// directory entry are fsync'd around the rename, so a returned call
/// survives an unclean shutdown (power loss included) — without it the
/// rename is atomic against crashes of this process but the data may still
/// sit in page cache. Throws std::runtime_error naming the path on any I/O
/// failure.
void save_graph(const BipartiteGraph& graph, const std::string& path,
                std::string_view key = {}, bool sync = false);

/// Maps `path` and returns a BipartiteGraph viewing the mapped arrays —
/// zero copies; the mapping is kept alive by the graph (and its copies).
/// `memory_bytes()` of the result is the file size. If `key_out` is given,
/// it receives the embedded key. Every rejection names the path: a
/// GraphFileError for bad content (short/truncated file, bad magic, version
/// or integer-width mismatch, size inconsistency, CRC mismatch, arrays that
/// fail BipartiteGraph validation), a plain std::runtime_error when the
/// file cannot be opened or mapped at all.
[[nodiscard]] BipartiteGraph load_graph_mapped(const std::string& path,
                                               std::string* key_out = nullptr);

} // namespace bmh
