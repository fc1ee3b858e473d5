#include "graph/bipartite_graph.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "graph/count_scatter.hpp"
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

/// validate_csr's per-row tallies: descents at row starts (not errors) and
/// rows whose first or last id lies outside the column range.
struct RowEnds {
  eid_t forgiven = 0;
  eid_t out_of_range = 0;
  RowEnds& operator+=(const RowEnds& other) noexcept {
    forgiven += other.forgiven;
    out_of_range += other.out_of_range;
    return *this;
  }
};

/// validate_external's transpose check, on two halves validate_csr has
/// accepted with the same edge count. The CSC must be the exact transpose of
/// the CSR in the canonical layout this library produces (row ids within
/// each column sorted ascending): sweeping CSR rows in order, each edge
/// (i, j) must be the next unconsumed CSC entry of column j. No column then
/// holds fewer CSC entries than CSR edges, and the totals agree, so every
/// column is used up. Unlike a degree-only cross-check this rejects
/// degree-preserving forgeries, so even a CRC-valid tampered store file
/// cannot serve mismatched orientations.
///
/// On a team the rows split into blocks of about equal edge counts. A
/// counting pass gives every block but the last its edges per column; in
/// block order they become each block's 32-bit offset into the column (a
/// column holds at most one entry per row). Once the earlier blocks fit in
/// every column, no cursor of theirs can leave its column, so each block
/// walks its rows from its own offsets and only the last one checks the
/// column's end, as the serial sweep does. Blocks are fixed before the
/// region and each thread loops over its share, so a smaller team from the
/// runtime still covers every block. A single block (small inputs, a team
/// of one) is the serial sweep, inline.
bool csc_is_transpose(std::size_t rows, std::size_t cols, const eid_t* row_ptr,
                      const vid_t* col_idx, const eid_t* col_ptr, const vid_t* row_idx) {
  const auto nnz = static_cast<std::size_t>(row_ptr[rows]);
  // One block per thread of the ambient team, but few enough that blocks ×
  // cols cursors stay within the edge count; one below kParallelMinItems.
  const std::size_t blocks =
      nnz < kParallelMinItems
          ? 1
          : std::clamp<std::size_t>(nnz / std::max<std::size_t>(cols, 1), 1,
                                    static_cast<std::size_t>(omp_get_max_threads()));
  DefaultInitVector<std::uint32_t> scratch(blocks * cols);
  std::uint32_t* const cursors = scratch.data();
  // First row of block b: the first row at or past b's share of the edges.
  const auto first_row = [=](std::size_t b) {
    if (b == blocks) return rows;
    const auto target = static_cast<eid_t>(nnz * b / blocks);
    return static_cast<std::size_t>(std::lower_bound(row_ptr, row_ptr + rows, target) -
                                    row_ptr);
  };
  // overfull is set only in the placement pass and read after its barrier,
  // so every thread takes the same branch past it.
  std::atomic<bool> overfull{false};
  std::atomic<bool> mismatch{false};

  const auto count = [&](std::size_t t, std::size_t size) {
    for (std::size_t b = t; b + 1 < blocks; b += size) {
      std::uint32_t* const mine = cursors + b * cols;
      std::fill_n(mine, cols, 0u);
      const auto end = static_cast<std::size_t>(row_ptr[first_row(b + 1)]);
      for (auto e = static_cast<std::size_t>(row_ptr[first_row(b)]); e < end; ++e)
        ++mine[static_cast<std::size_t>(col_idx[e])];
    }
  };
  const auto place = [&](std::size_t t, std::size_t size) {
    bool fits = true;
    for (std::size_t j = cols * t / size; j < cols * (t + 1) / size; ++j) {
      std::uint32_t offset = 0;
      for (std::size_t b = 0; b + 1 < blocks; ++b) {
        const std::uint32_t edges = cursors[b * cols + j];
        cursors[b * cols + j] = offset;
        offset += edges;
      }
      cursors[(blocks - 1) * cols + j] = offset;
      fits = fits && static_cast<eid_t>(offset) <= col_ptr[j + 1] - col_ptr[j];
    }
    if (!fits) overfull.store(true, std::memory_order_relaxed);
  };
  const auto walk = [&](std::size_t t, std::size_t size) {
    for (std::size_t b = t; b < blocks; b += size) {
      std::uint32_t* const cursor = cursors + b * cols;
      const bool last = b + 1 == blocks;
      for (std::size_t i = first_row(b), end = first_row(b + 1); i < end; ++i)
        for (eid_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
          const auto j = static_cast<std::size_t>(col_idx[e]);
          const eid_t at = col_ptr[j] + cursor[j]++;
          if ((last && at == col_ptr[j + 1]) ||
              row_idx[static_cast<std::size_t>(at)] != static_cast<vid_t>(i)) {
            mismatch.store(true, std::memory_order_relaxed);
            return;
          }
        }
    }
  };

  if (blocks == 1) {
    place(0, 1);
    walk(0, 1);
  } else {
#pragma omp parallel num_threads(static_cast<int>(blocks))
    {
      const auto size = static_cast<std::size_t>(omp_get_num_threads());
      const auto t = static_cast<std::size_t>(omp_get_thread_num());
      count(t, size);
#pragma omp barrier
      place(t, size);
#pragma omp barrier
      if (!overfull.load(std::memory_order_relaxed)) walk(t, size);
    }
  }
  return !overfull.load(std::memory_order_relaxed) && !mismatch.load(std::memory_order_relaxed);
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
  // Each pass is a sum over blocks on the ambient team (inline below
  // kParallelMinItems); the verdicts, and so the messages, do not depend on
  // the team size.
  const eid_t* const ptr = row_ptr.data();
  const vid_t* const idx = col_idx.data();
  const auto rows = static_cast<std::size_t>(num_rows);
  const eid_t descending = parallel_sum<eid_t>(rows, [ptr](std::size_t begin, std::size_t end) {
    eid_t count = 0;
    for (std::size_t i = begin; i < end; ++i) count += ptr[i] > ptr[i + 1];
    return count;
  });
  if (descending != 0) throw std::invalid_argument("BipartiteGraph: row_ptr not monotone");
  // Ids strictly ascending within each row (sorted, no duplicate edge):
  // count the ids not above their predecessor in one branch-free pass the
  // compiler vectorizes, then forgive those that start a row. A row checked
  // ascending lies between its first and last id, so only those two need
  // the range check. A branch per edge took several times as long.
  const eid_t descents =
      parallel_sum<eid_t>(col_idx.size(), [idx](std::size_t begin, std::size_t end) {
        eid_t count = 0;
        for (std::size_t e = std::max<std::size_t>(begin, 1); e < end; ++e)
          count += idx[e] <= idx[e - 1];
        return count;
      });
  const RowEnds ends = parallel_sum<RowEnds>(rows, [ptr, idx, num_cols](std::size_t begin,
                                                                        std::size_t end) {
    RowEnds sum;
    for (std::size_t i = begin; i < end; ++i) {
      const eid_t first = ptr[i];
      const eid_t last = ptr[i + 1] - 1;
      if (first > last) continue;
      if (first > 0) sum.forgiven += idx[first] <= idx[first - 1];
      sum.out_of_range += idx[first] < 0 || idx[last] >= num_cols;
    }
    return sum;
  });
  if (descents != ends.forgiven)
    throw std::invalid_argument(
        "BipartiteGraph: column ids within a row not strictly ascending "
        "(unsorted or duplicate edge)");
  if (ends.out_of_range != 0)
    throw std::invalid_argument("BipartiteGraph: column id out of range");
}

void BipartiteGraph::validate_external(vid_t num_rows, vid_t num_cols,
                                       const ExternalStorage& storage) {
  // The CSR half, then the CSC half (which is the transpose's CSR).
  validate_csr(num_rows, num_cols, storage.row_ptr, storage.col_idx);
  validate_csr(num_cols, num_rows, storage.col_ptr, storage.row_idx);
  if (storage.col_idx.size() != storage.row_idx.size() ||
      !csc_is_transpose(static_cast<std::size_t>(num_rows), static_cast<std::size_t>(num_cols),
                        storage.row_ptr.data(), storage.col_idx.data(), storage.col_ptr.data(),
                        storage.row_idx.data()))
    throw std::invalid_argument("BipartiteGraph: CSC is not the transpose of the CSR");
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
                               DefaultInitVector<eid_t> row_ptr, DefaultInitVector<vid_t> col_idx,
                               DefaultInitVector<Edge> csc_staging)
    : num_rows_(num_rows),
      num_cols_(num_cols),
      storage_(OwnedStorage{std::move(row_ptr), std::move(col_idx), {}, {}}) {
  auto& owned = std::get<OwnedStorage>(storage_);
  validate_csr(num_rows_, num_cols_, owned.row_ptr, owned.col_idx);
  build_csc(csc_staging);
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

BipartiteGraph::OwnedStorage& BipartiteGraph::begin_rebuild() {
  // New arrays, new rank: a pooled graph rebuilt in place must not serve
  // the previous instance's sprank or scaling.
  sprank_memo_.store(kUnknownSprank, std::memory_order_relaxed);
  drop_scaling();
  // Everything past here writes or reallocates buffers the view members
  // point into (or tears down a mapping they point into), and any of it can
  // throw. Park the object in the consistent empty state first: if the
  // rebuild is interrupted, the graph reads as 0x0 with empty spans instead
  // of holding views over freed memory.
  num_rows_ = 0;
  num_cols_ = 0;
  row_ptr_ = {};
  col_idx_ = {};
  col_ptr_ = {};
  row_idx_ = {};
  if (!owns_storage()) storage_.emplace<OwnedStorage>();
  return std::get<OwnedStorage>(storage_);
}

void BipartiteGraph::finish_rebuild(vid_t num_rows, vid_t num_cols) {
  const auto& owned = std::get<OwnedStorage>(storage_);
  validate_csr(num_rows, num_cols, owned.row_ptr, owned.col_idx);
  validate_csr(num_cols, num_rows, owned.col_ptr, owned.row_idx);
  num_rows_ = num_rows;
  num_cols_ = num_cols;
  rebind_views();
}

void BipartiteGraph::build_csc(DefaultInitVector<Edge>& staging) {
  // count_scatter over the edges in CSR order, keyed by column: each
  // column's rows come out in increasing order, sorted ascending by
  // construction. A thread's scatter slice may start mid-row; it finds that
  // row by binary search and walks on from there.
  auto& owned = std::get<OwnedStorage>(storage_);
  const vid_t num_rows = num_rows_;
  const vid_t num_cols = num_cols_;
  const eid_t* const row_ptr = owned.row_ptr.data();
  const vid_t* const col_idx = owned.col_idx.data();
  const eid_t nnz = owned.row_ptr.empty() ? 0 : owned.row_ptr.back();
  owned.col_ptr.resize(static_cast<std::size_t>(num_cols) + 1);
  owned.row_idx.resize(static_cast<std::size_t>(nnz));
  DefaultInitVector<eid_t> counts;
  count_scatter(
      static_cast<std::size_t>(nnz), static_cast<std::size_t>(num_cols),
      [col_idx](std::size_t e) { return col_idx[e]; },
      [row_ptr, col_idx, num_rows](std::size_t begin, std::size_t end, auto&& sink) {
        if (begin == end) return;
        auto row = static_cast<vid_t>(
            std::upper_bound(row_ptr, row_ptr + num_rows + 1, static_cast<eid_t>(begin)) -
            row_ptr - 1);
        for (std::size_t e = begin; e < end; ++row) {
          const auto row_end =
              std::min(end, static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(row) + 1]));
          for (; e < row_end; ++e) sink(col_idx[e], row);
        }
      },
      std::span<eid_t>(owned.col_ptr),
      [row_idx = owned.row_idx.data()](std::size_t at, vid_t, vid_t row) { row_idx[at] = row; },
      counts, staging);
}

BipartiteGraph BipartiteGraph::transposed() const {
  // The CSC view *is* the transpose's CSR view.
  return BipartiteGraph(num_cols_, num_rows_,
                        DefaultInitVector<eid_t>(col_ptr_.begin(), col_ptr_.end()),
                        DefaultInitVector<vid_t>(row_idx_.begin(), row_idx_.end()));
}

} // namespace bmh
