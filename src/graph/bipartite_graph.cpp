#include "graph/bipartite_graph.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "scaling/scaling.hpp"

namespace bmh {

struct BipartiteGraph::ScalingEntry {
  ScalingKey key;
  ScalingResult result;
};

namespace {

/// Bitwise, so a NaN tolerance still names one key.
bool same_key(const ScalingKey& a, const ScalingKey& b) noexcept {
  return a.method == b.method && a.iterations == b.iterations &&
         std::bit_cast<std::uint64_t>(a.tolerance) ==
             std::bit_cast<std::uint64_t>(b.tolerance);
}

/// The key's record for offer_scaling: a mix of its three fields, never 0
/// (0 means "no key offered yet"). A collision only publishes early; the
/// entry itself keeps the full key.
std::uint64_t scaling_key_hash(const ScalingKey& key) noexcept {
  std::uint64_t h = std::bit_cast<std::uint64_t>(key.tolerance);
  h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.method)) << 32 |
        static_cast<std::uint32_t>(key.iterations)) *
       0x9e3779b97f4a7c15ull;
  return h | 1;
}

} // namespace

void BipartiteGraph::validate_csr(vid_t num_rows, vid_t num_cols,
                                  std::span<const eid_t> row_ptr,
                                  std::span<const vid_t> col_idx) {
  if (num_rows < 0 || num_cols < 0)
    throw std::invalid_argument("BipartiteGraph: negative dimension");
  if (row_ptr.size() != static_cast<std::size_t>(num_rows) + 1)
    throw std::invalid_argument("BipartiteGraph: row_ptr size mismatch");
  if (row_ptr.front() != 0 || row_ptr.back() != static_cast<eid_t>(col_idx.size()))
    throw std::invalid_argument("BipartiteGraph: row_ptr bounds mismatch");
  for (vid_t i = 0; i < num_rows; ++i)
    if (row_ptr[i] > row_ptr[i + 1])
      throw std::invalid_argument("BipartiteGraph: row_ptr not monotone");
  for (const vid_t j : col_idx)
    if (j < 0 || j >= num_cols)
      throw std::invalid_argument("BipartiteGraph: column id out of range");
}

void BipartiteGraph::validate_external(vid_t num_rows, vid_t num_cols,
                                       const ExternalStorage& storage) {
  // The CSR half, then the CSC half (which is the transpose's CSR).
  validate_csr(num_rows, num_cols, storage.row_ptr, storage.col_idx);
  validate_csr(num_cols, num_rows, storage.col_ptr, storage.row_idx);
  // The CSC must be the exact transpose of the CSR in the canonical layout
  // this library produces (row ids within each column sorted ascending):
  // sweeping CSR rows in order, each edge (i, j) must be the next unconsumed
  // CSC entry of column j. O(edges) time, O(cols) scratch — and unlike a
  // degree-only cross-check it rejects degree-preserving forgeries, so even
  // a CRC-valid tampered store file cannot serve mismatched orientations.
  std::vector<eid_t> cursor(storage.col_ptr.begin(), storage.col_ptr.end() - 1);
  for (vid_t i = 0; i < num_rows; ++i)
    for (eid_t e = storage.row_ptr[static_cast<std::size_t>(i)];
         e < storage.row_ptr[static_cast<std::size_t>(i) + 1]; ++e) {
      const auto j = static_cast<std::size_t>(storage.col_idx[static_cast<std::size_t>(e)]);
      if (cursor[j] == storage.col_ptr[j + 1] ||
          storage.row_idx[static_cast<std::size_t>(cursor[j])] != i)
        throw std::invalid_argument(
            "BipartiteGraph: CSC is not the transpose of the CSR");
      ++cursor[j];
    }
  for (vid_t j = 0; j < num_cols; ++j)
    if (cursor[static_cast<std::size_t>(j)] != storage.col_ptr[static_cast<std::size_t>(j) + 1])
      throw std::invalid_argument(
          "BipartiteGraph: CSC is not the transpose of the CSR");
}

void BipartiteGraph::rebind_views() noexcept {
  if (const auto* owned = std::get_if<OwnedStorage>(&storage_)) {
    row_ptr_ = owned->row_ptr;
    col_idx_ = owned->col_idx;
    col_ptr_ = owned->col_ptr;
    row_idx_ = owned->row_idx;
  } else {
    const auto& external = std::get<ExternalStorage>(storage_);
    row_ptr_ = external.row_ptr;
    col_idx_ = external.col_idx;
    col_ptr_ = external.col_ptr;
    row_idx_ = external.row_idx;
  }
}

void BipartiteGraph::reset_empty() {
  // The default-constructed 0x0 graph keeps the historical shape: row_ptr
  // and col_ptr each hold the single offset 0, so row_ptr().size() ==
  // num_rows()+1 holds for it like for any constructed graph.
  auto& owned = storage_.emplace<OwnedStorage>();
  owned.row_ptr.assign(1, 0);
  owned.col_ptr.assign(1, 0);
  num_rows_ = 0;
  num_cols_ = 0;
  rebind_views();
}

BipartiteGraph::BipartiteGraph() { reset_empty(); }

BipartiteGraph::~BipartiteGraph() { drop_scaling(); }

void BipartiteGraph::drop_scaling() noexcept {
  // Relaxed: callers own the graph exclusively (no concurrent reader).
  delete scaling_entry_.exchange(nullptr, std::memory_order_relaxed);
  // Relaxed: the record is a hint, read only by offer_scaling.
  scaling_seen_.store(0, std::memory_order_relaxed);
}

const ScalingResult* BipartiteGraph::known_scaling(const ScalingKey& key) const noexcept {
  // Acquire pairs with offer_scaling's release CAS: a non-null entry is
  // seen fully constructed.
  const ScalingEntry* entry = scaling_entry_.load(std::memory_order_acquire);
  return entry != nullptr && same_key(entry->key, key) ? &entry->result : nullptr;
}

const ScalingResult& BipartiteGraph::offer_scaling(const ScalingKey& key,
                                                   ScalingResult& result) const {
  // Relaxed: a graph that already carries an entry never publishes again,
  // so only the pointer's nullness matters here; readers acquire it.
  if (scaling_entry_.load(std::memory_order_relaxed) != nullptr) return result;
  const std::uint64_t hash = scaling_key_hash(key);
  // Relaxed: the record only decides when to publish; racing offers at
  // worst publish one use late.
  if (scaling_seen_.exchange(hash, std::memory_order_relaxed) != hash) return result;
  auto* entry = new ScalingEntry{key, std::move(result)};
  const ScalingEntry* expected = nullptr;
  // Release publishes the entry's contents to known_scaling's acquire
  // load; relaxed on failure, since the loser reads only its own result.
  if (scaling_entry_.compare_exchange_strong(expected, entry, std::memory_order_release,
                                             std::memory_order_relaxed))
    return entry->result;
  result = std::move(entry->result);  // another offer won: keep ours
  delete entry;
  return result;
}

BipartiteGraph::BipartiteGraph(vid_t num_rows, vid_t num_cols,
                               std::vector<eid_t> row_ptr, std::vector<vid_t> col_idx)
    : num_rows_(num_rows),
      num_cols_(num_cols),
      storage_(OwnedStorage{std::move(row_ptr), std::move(col_idx), {}, {}}) {
  auto& owned = std::get<OwnedStorage>(storage_);
  validate_csr(num_rows_, num_cols_, owned.row_ptr, owned.col_idx);
  build_csc(num_rows_, num_cols_);
  rebind_views();
}

BipartiteGraph::BipartiteGraph(vid_t num_rows, vid_t num_cols,
                               ExternalStorage storage)
    : num_rows_(num_rows), num_cols_(num_cols) {
  validate_external(num_rows, num_cols, storage);
  storage_ = std::move(storage);
  rebind_views();
}

// Copies drop the remembered scaling: the entry is owned by one graph
// object, and a copy is a new object that earns its own on its second use.
// Moves carry it with the arrays.
BipartiteGraph::BipartiteGraph(const BipartiteGraph& other)
    : num_rows_(other.num_rows_),
      num_cols_(other.num_cols_),
      sprank_memo_(other.sprank_memo_.load(std::memory_order_relaxed)),
      storage_(other.storage_) {
  rebind_views();
}

BipartiteGraph::BipartiteGraph(BipartiteGraph&& other) noexcept
    : num_rows_(other.num_rows_),
      num_cols_(other.num_cols_),
      sprank_memo_(other.sprank_memo_.exchange(kUnknownSprank, std::memory_order_relaxed)),
      // Relaxed: a moved-from graph is owned exclusively by the mover.
      scaling_seen_(other.scaling_seen_.exchange(0, std::memory_order_relaxed)),
      // Relaxed: as above.
      scaling_entry_(other.scaling_entry_.exchange(nullptr, std::memory_order_relaxed)),
      storage_(std::move(other.storage_)) {
  rebind_views();
  // Leave the source a valid empty graph rather than with dangling views
  // (vectors empty, exactly like a moved-from vector member used to be;
  // nothing here may allocate, this constructor is noexcept).
  other.num_rows_ = 0;
  other.num_cols_ = 0;
  other.storage_.emplace<OwnedStorage>();
  other.rebind_views();
}

BipartiteGraph& BipartiteGraph::operator=(const BipartiteGraph& other) {
  if (this != &other) {
    num_rows_ = other.num_rows_;
    num_cols_ = other.num_cols_;
    sprank_memo_.store(other.sprank_memo_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    drop_scaling();
    storage_ = other.storage_;
    rebind_views();
  }
  return *this;
}

BipartiteGraph& BipartiteGraph::operator=(BipartiteGraph&& other) noexcept {
  if (this != &other) {
    num_rows_ = other.num_rows_;
    num_cols_ = other.num_cols_;
    sprank_memo_.store(other.sprank_memo_.exchange(kUnknownSprank, std::memory_order_relaxed),
                       std::memory_order_relaxed);
    drop_scaling();
    // Relaxed: both graphs are owned exclusively by the assigning thread.
    scaling_seen_.store(other.scaling_seen_.exchange(0, std::memory_order_relaxed),
                        std::memory_order_relaxed);
    // Relaxed: as above.
    scaling_entry_.store(other.scaling_entry_.exchange(nullptr, std::memory_order_relaxed),
                         std::memory_order_relaxed);
    storage_ = std::move(other.storage_);
    rebind_views();
    other.num_rows_ = 0;
    other.num_cols_ = 0;
    other.storage_.emplace<OwnedStorage>();
    other.rebind_views();
  }
  return *this;
}

std::size_t BipartiteGraph::memory_bytes() const noexcept {
  std::size_t bytes = 0;
  if (const auto* owned = std::get_if<OwnedStorage>(&storage_))
    bytes = (owned->row_ptr.capacity() + owned->col_ptr.capacity()) * sizeof(eid_t) +
            (owned->col_idx.capacity() + owned->row_idx.capacity()) * sizeof(vid_t);
  else
    bytes = std::get<ExternalStorage>(storage_).resident_bytes;
  // Acquire pairs with offer_scaling's release CAS: the capacities read
  // below are the published entry's.
  if (const ScalingEntry* entry = scaling_entry_.load(std::memory_order_acquire))
    bytes += sizeof(ScalingEntry) +
             (entry->result.dr.capacity() + entry->result.dc.capacity()) * sizeof(double);
  return bytes;
}

void BipartiteGraph::assign_csr(vid_t num_rows, vid_t num_cols,
                                std::span<const eid_t> row_ptr,
                                std::span<const vid_t> col_idx) {
  validate_csr(num_rows, num_cols, row_ptr, col_idx);  // members untouched on throw
  // New arrays, new rank: a pooled graph rebuilt in place must not serve
  // the previous instance's sprank or scaling.
  sprank_memo_.store(kUnknownSprank, std::memory_order_relaxed);
  drop_scaling();
  // Everything past validation reallocates buffers the view members point
  // into (or, below, tears down a mapping they point into), and any of it
  // can throw bad_alloc. Park the object in the consistent empty state
  // first: if the rebuild is interrupted, the graph reads as 0x0 with empty
  // spans instead of holding views over freed memory.
  num_rows_ = 0;
  num_cols_ = 0;
  row_ptr_ = {};
  col_idx_ = {};
  col_ptr_ = {};
  row_idx_ = {};
  if (!owns_storage()) {
    // The input spans may alias this graph's own mapped storage (the
    // natural g.assign_csr(..., g.row_ptr(), g.col_idx()) conversion
    // idiom), and replacing the variant alternative drops the mapping's
    // keepalive — possibly munmap-ing the bytes the spans point into. Copy
    // through a local first; the one-off allocations are fine, an
    // externally backed graph is never on the pooled rebuild path.
    OwnedStorage fresh;
    fresh.row_ptr.assign(row_ptr.begin(), row_ptr.end());
    fresh.col_idx.assign(col_idx.begin(), col_idx.end());
    storage_ = std::move(fresh);
  } else {
    auto& owned = std::get<OwnedStorage>(storage_);
    owned.row_ptr.assign(row_ptr.begin(), row_ptr.end());
    owned.col_idx.assign(col_idx.begin(), col_idx.end());
  }
  build_csc(num_rows, num_cols);
  num_rows_ = num_rows;
  num_cols_ = num_cols;
  rebind_views();
}

void BipartiteGraph::build_csc(vid_t num_rows, vid_t num_cols) {
  // Serial count-and-scatter. Reusing col_ptr as the scatter cursor needs no
  // scratch, so a pooled rebuild allocates nothing once warm. Row ids within
  // each column come out sorted ascending by construction: rows are
  // scattered in increasing order.
  auto& owned = std::get<OwnedStorage>(storage_);
  const std::vector<eid_t>& row_ptr = owned.row_ptr;
  const std::vector<vid_t>& col_idx = owned.col_idx;
  std::vector<eid_t>& col_ptr = owned.col_ptr;
  std::vector<vid_t>& row_idx = owned.row_idx;
  const eid_t nnz = row_ptr.empty() ? 0 : row_ptr.back();
  col_ptr.assign(static_cast<std::size_t>(num_cols) + 1, 0);
  row_idx.resize(static_cast<std::size_t>(nnz));
  for (eid_t e = 0; e < nnz; ++e)
    ++col_ptr[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(e)]) + 1];
  for (vid_t j = 0; j < num_cols; ++j)
    col_ptr[static_cast<std::size_t>(j) + 1] += col_ptr[static_cast<std::size_t>(j)];
  for (vid_t i = 0; i < num_rows; ++i)
    for (eid_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
      const auto j = static_cast<std::size_t>(col_idx[static_cast<std::size_t>(e)]);
      row_idx[static_cast<std::size_t>(col_ptr[j]++)] = i;
    }
  // The cursor pass left col_ptr[j] == end(j) == start(j+1); shift right to
  // restore start offsets (descending, so each read precedes its overwrite).
  for (vid_t j = num_cols - 1; j > 0; --j)
    col_ptr[static_cast<std::size_t>(j)] = col_ptr[static_cast<std::size_t>(j) - 1];
  if (num_cols > 0) col_ptr[0] = 0;
}

bool BipartiteGraph::has_edge(vid_t i, vid_t j) const noexcept {
  if (i < 0 || i >= num_rows_ || j < 0 || j >= num_cols_) return false;
  const auto nbrs = row_neighbors(i);
  return std::find(nbrs.begin(), nbrs.end(), j) != nbrs.end();
}

BipartiteGraph BipartiteGraph::transposed() const {
  // The CSC view *is* the transpose's CSR view.
  return BipartiteGraph(num_cols_, num_rows_,
                        std::vector<eid_t>(col_ptr_.begin(), col_ptr_.end()),
                        std::vector<vid_t>(row_idx_.begin(), row_idx_.end()));
}

bool BipartiteGraph::structurally_equal(const BipartiteGraph& other) const {
  if (num_rows_ != other.num_rows_ || num_cols_ != other.num_cols_ ||
      num_edges() != other.num_edges())
    return false;
  for (vid_t i = 0; i < num_rows_; ++i) {
    auto a = row_neighbors(i);
    auto b = other.row_neighbors(i);
    if (a.size() != b.size()) return false;
    std::vector<vid_t> sa(a.begin(), a.end()), sb(b.begin(), b.end());
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    if (sa != sb) return false;
  }
  return true;
}

} // namespace bmh
