#pragma once
/// \file bipartite_graph.hpp
/// \brief Compressed bipartite graph / sparse (0,1)-matrix structure.
///
/// The paper treats a bipartite graph G = (V_R ∪ V_C, E) and its adjacency
/// matrix A interchangeably; so do we. `BipartiteGraph` stores both the
/// row-major view (CSR: for each row vertex, its column neighbours) and the
/// column-major view (CSC: for each column vertex, its row neighbours),
/// because the algorithms sweep both sides:
///   * Sinkhorn–Knopp normalizes columns then rows (Alg. 1),
///   * TwoSidedMatch samples one choice per row *and* per column (Alg. 3).
///
/// The structure is immutable after construction; all algorithms treat it as
/// read-only shared state, which is what makes the OpenMP parallelism in
/// this library race-free by construction.
///
/// Storage is pluggable: the four CSR/CSC arrays are `std::span` views over
/// either heap vectors owned by the graph (every constructed or assigned
/// graph — the historical behaviour, byte for byte) or an external read-only
/// region the graph merely keeps alive (a memory-mapped store file, see
/// graph/serialize.hpp). The storage choice is invisible to the algorithm
/// layer: every accessor below returns the same span types either way, and
/// `memory_bytes()` accounts whichever backing is active. The one mutating
/// operation (`rebuild`) converts an externally backed graph to owned
/// storage first, so the immutable mapped bytes are never written.
///
/// A graph can carry its structural rank once someone has solved it
/// (`known_sprank` / `remember_sprank`): sprank is a pure function of the
/// arrays, so a graph shared across jobs (a graph-cache entry) pays the
/// exact solve once. The memo follows the arrays — copies and moves carry
/// it, `rebuild` clears it.
///
/// A graph can also carry one scaling (`known_scaling` / `offer_scaling`):
/// the multipliers of a Sinkhorn–Knopp or Ruiz run depend only on the
/// arrays and the (method, iterations, tolerance) key, so a resident graph
/// scales once per key instead of once per job. The entry is published on
/// a key's second use and is immutable from then on; moves carry it,
/// copies and `rebuild` drop it.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "util/default_init.hpp"
#include "util/types.hpp"

namespace bmh {

struct ScalingResult;  // scaling/scaling.hpp

/// What a remembered scaling was computed with: the caller's scaler id (the
/// engine's ScalingMethod), the iteration cap and the tolerance. A
/// remembered entry answers only the key it was computed for, field by
/// field and the tolerance bit for bit.
struct ScalingKey {
  int method = 0;
  int iterations = 0;
  double tolerance = 0.0;
};

class BipartiteGraph {
public:
  /// Read-only external backing for a graph whose arrays live outside the
  /// object. `keepalive` owns the bytes (e.g. a MappedFile); the four spans
  /// must stay valid for as long as it does. `resident_bytes` is what
  /// `memory_bytes()` reports — for a mapped store file, the file size the
  /// mapping can page in (what a cache should account).
  struct ExternalStorage {
    std::span<const eid_t> row_ptr;
    std::span<const vid_t> col_idx;
    std::span<const eid_t> col_ptr;
    std::span<const vid_t> row_idx;
    std::shared_ptr<const void> keepalive;
    std::size_t resident_bytes = 0;
  };

  BipartiteGraph();

  /// Constructs from ready-made CSR arrays, which the graph keeps; the CSC
  /// view is derived. `row_ptr` has `num_rows+1` entries; `col_idx` holds
  /// column ids in [0, num_cols), strictly ascending within each row:
  /// sorted, without duplicate edges (GraphBuilder emits them so). Anything
  /// else throws std::invalid_argument. The derived CSC is sorted the same
  /// way. `csc_staging` is the CSC build's staging buffer
  /// (graph/count_scatter.hpp), released once the CSC is built;
  /// GraphBuilder::build hands over its spent edge buffer, already paged in.
  BipartiteGraph(vid_t num_rows, vid_t num_cols, DefaultInitVector<eid_t> row_ptr,
                 DefaultInitVector<vid_t> col_idx, DefaultInitVector<Edge> csc_staging = {});

  /// Constructs a graph viewing external CSR *and* CSC arrays (both are
  /// given: the point of external backing is loading without rebuilding).
  /// Both orientations are fully validated — sizes, monotone offsets, id
  /// ranges, ids strictly ascending per row and per column (no duplicate
  /// edge), and the CSC being the exact transpose of the CSR — so a corrupt
  /// or forged region is rejected
  /// (std::invalid_argument) rather than served. Validation reads the
  /// arrays but never copies them; from 2^15 edges it runs on the ambient
  /// OpenMP team, with the same verdicts and messages at any team size.
  BipartiteGraph(vid_t num_rows, vid_t num_cols, ExternalStorage storage);

  // Spans view the storage variant, so copies/moves rebind them rather than
  // letting the defaults alias the source object's vectors.
  BipartiteGraph(const BipartiteGraph& other);
  BipartiteGraph(BipartiteGraph&& other) noexcept;
  BipartiteGraph& operator=(const BipartiteGraph& other);
  BipartiteGraph& operator=(BipartiteGraph&& other) noexcept;
  ~BipartiteGraph();

  /// In-place re-initialization from arrays that
  /// `fill(row_ptr, col_idx, col_ptr, row_idx)` writes straight into the
  /// graph's own vectors (contents unspecified on entry) — the
  /// pooled-construction path: a graph kept in a Workspace is rebuilt every
  /// call, with no staging copy and no heap traffic once its vectors have
  /// grown to the working-set size (k_out's subgraph is built this way).
  /// `fill` writes both orientations, the CSC being the exact transpose of
  /// the CSR; each is validated like a constructor's CSR, the transpose is
  /// the caller's to get right. `fill` must not read this graph: its views
  /// are already parked empty, and a mapping behind them may be gone. Drops
  /// the remembered sprank and scaling; an externally backed graph switches
  /// to owned storage. If `fill` or the validation throws, the graph is left
  /// as the empty 0x0 graph and the exception propagates.
  template <class Fill>
  void rebuild(vid_t num_rows, vid_t num_cols, const Fill& fill) {
    OwnedStorage& owned = begin_rebuild();
    try {
      fill(owned.row_ptr, owned.col_idx, owned.col_ptr, owned.row_idx);
      finish_rebuild(num_rows, num_cols);
    } catch (...) {
      reset_empty();
      throw;
    }
  }

  [[nodiscard]] vid_t num_rows() const noexcept { return num_rows_; }
  [[nodiscard]] vid_t num_cols() const noexcept { return num_cols_; }
  [[nodiscard]] eid_t num_edges() const noexcept {
    return row_ptr_.empty() ? 0 : row_ptr_.back();
  }
  [[nodiscard]] bool square() const noexcept { return num_rows_ == num_cols_; }

  /// Column neighbours of row vertex `i` (the nonzero columns of row i).
  [[nodiscard]] std::span<const vid_t> row_neighbors(vid_t i) const noexcept {
    return {col_idx_.data() + row_ptr_[i],
            static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }

  /// Row neighbours of column vertex `j` (the nonzero rows of column j).
  [[nodiscard]] std::span<const vid_t> col_neighbors(vid_t j) const noexcept {
    return {row_idx_.data() + col_ptr_[j],
            static_cast<std::size_t>(col_ptr_[j + 1] - col_ptr_[j])};
  }

  [[nodiscard]] eid_t row_degree(vid_t i) const noexcept {
    return row_ptr_[i + 1] - row_ptr_[i];
  }
  [[nodiscard]] eid_t col_degree(vid_t j) const noexcept {
    return col_ptr_[j + 1] - col_ptr_[j];
  }

  /// Raw arrays, exposed for kernels that index edges directly.
  [[nodiscard]] std::span<const eid_t> row_ptr() const noexcept { return row_ptr_; }
  [[nodiscard]] std::span<const vid_t> col_idx() const noexcept { return col_idx_; }
  [[nodiscard]] std::span<const eid_t> col_ptr() const noexcept { return col_ptr_; }
  [[nodiscard]] std::span<const vid_t> row_idx() const noexcept { return row_idx_; }

  /// Resident bytes backing the four CSR/CSC arrays: heap capacity for owned
  /// storage (the historical accounting), the external region's
  /// resident_bytes (file size) for mapped storage — plus the remembered
  /// scaling's multipliers once one is published. Either way, the cost a
  /// cache accounts for keeping this graph around.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  /// True when the arrays live in heap vectors owned by this object; false
  /// for an external (e.g. memory-mapped) backing.
  [[nodiscard]] bool owns_storage() const noexcept {
    return std::holds_alternative<OwnedStorage>(storage_);
  }

  /// The structural rank remembered by `remember_sprank`, or nullopt when
  /// no one has stored it yet for the current arrays.
  [[nodiscard]] std::optional<vid_t> known_sprank() const noexcept {
    const vid_t rank = sprank_memo_.load(std::memory_order_relaxed);
    return rank == kUnknownSprank ? std::nullopt : std::optional<vid_t>(rank);
  }

  /// Stores sprank(*this) for later callers. Logically const: the memo
  /// caches a function of the immutable arrays. Safe to call concurrently;
  /// racing callers solved the same graph, so they store the same value
  /// (relaxed suffices: the integer is the whole payload).
  void remember_sprank(vid_t sprank) const noexcept {
    sprank_memo_.store(sprank, std::memory_order_relaxed);
  }

  /// The scaling remembered for `key`, or nullptr when the graph carries
  /// none or carries another key's. A non-null result stays valid, and
  /// unchanged, for the graph's lifetime (or until `rebuild`).
  [[nodiscard]] const ScalingResult* known_scaling(const ScalingKey& key) const noexcept;

  /// Offers `result`, just computed for `key`, for remembering, and returns
  /// what the caller should read: the published entry or `result` itself.
  /// The graph records only the hash of the last key offered; an offer
  /// whose key hash matches that record is the key's second use and
  /// publishes, moving `result` into the graph's one entry. A graph that
  /// already carries an entry keeps it (a second key never overwrites it),
  /// and of racing publishers the first wins; the losers keep their
  /// `result`. Logically const, like remember_sprank. Throws bad_alloc
  /// (with `result` untouched) if the entry cannot be allocated.
  const ScalingResult& offer_scaling(const ScalingKey& key, ScalingResult& result) const;

  /// The transpose graph: rows become columns and vice versa.
  [[nodiscard]] BipartiteGraph transposed() const;

private:
  // No default member initializers: NSDMIs of a nested class are parsed only
  // once the enclosing class is complete, which would leave the storage
  // variant believing OwnedStorage is not default-constructible. The empty
  // graph's canonical {0} row_ptr/col_ptr come from reset_empty() instead.
  /// Every array is written in full by whoever fills it (GraphBuilder,
  /// build_csc, a rebuild's `fill`), so none takes a zero fill.
  struct OwnedStorage {
    DefaultInitVector<eid_t> row_ptr;
    DefaultInitVector<vid_t> col_idx;
    DefaultInitVector<eid_t> col_ptr;
    DefaultInitVector<vid_t> row_idx;
  };

  static void validate_csr(vid_t num_rows, vid_t num_cols,
                           std::span<const eid_t> row_ptr,
                           std::span<const vid_t> col_idx);
  static void validate_external(vid_t num_rows, vid_t num_cols,
                                const ExternalStorage& storage);
  void rebind_views() noexcept;
  void reset_empty();
  /// Derives the CSC from the owned CSR on the ambient OpenMP team, the same
  /// arrays at any team size (graph/count_scatter.hpp).
  void build_csc(DefaultInitVector<Edge>& staging);
  /// rebuild's halves. begin_rebuild drops both memos, parks the graph as
  /// 0x0 with empty views and returns its owned storage; finish_rebuild
  /// validates both orientations and only then commits the dimensions and
  /// views.
  OwnedStorage& begin_rebuild();
  void finish_rebuild(vid_t num_rows, vid_t num_cols);

  static constexpr vid_t kUnknownSprank = -1;

  struct ScalingEntry;  // the key and its multipliers (bipartite_graph.cpp)
  /// Deletes the published scaling and forgets the last offered key. Only
  /// for a graph no other thread reads (assignment, a rebuild, teardown).
  void drop_scaling() noexcept;

  vid_t num_rows_ = 0;
  vid_t num_cols_ = 0;
  mutable std::atomic<vid_t> sprank_memo_{kUnknownSprank};
  /// Hash of the last key offered to offer_scaling (0: none yet).
  mutable std::atomic<std::uint64_t> scaling_seen_{0};
  /// The published scaling, owned by this graph; null until a key's
  /// second use.
  mutable std::atomic<const ScalingEntry*> scaling_entry_{nullptr};
  std::variant<OwnedStorage, ExternalStorage> storage_;
  std::span<const eid_t> row_ptr_;
  std::span<const vid_t> col_idx_;
  std::span<const eid_t> col_ptr_;
  std::span<const vid_t> row_idx_;
};

} // namespace bmh
