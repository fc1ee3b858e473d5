#pragma once
/// \file builder.hpp
/// \brief COO → CSR assembly with duplicate removal.
///
/// Generators and file readers produce unsorted (row, col) pairs, possibly
/// with repeats; `GraphBuilder` assembles them into a `BipartiteGraph` via a
/// counting sort over rows (count_scatter.hpp's, on the ambient OpenMP team)
/// followed by per-row sort+unique. The result is the same at any team size.
///
/// Two assembly modes:
///  * build()      — one-shot: returns a fresh graph and releases all builder
///                   memory (the generators' and readers' shape);
///  * build_into() — pooled: assembles into a caller-kept graph, reusing the
///                   builder's scratch and the graph's vectors across calls.
///                   A long-lived builder (e.g. leased from a Workspace via
///                   `ws.obj<GraphBuilder>(tag)`) re-used through
///                   reset()/add_edge()/build_into() performs zero heap
///                   allocations once warm — the k-out subgraph path runs on
///                   this.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "util/default_init.hpp"
#include "util/types.hpp"

namespace bmh {

/// A single (row, column) structural nonzero.
struct Edge {
  vid_t row;
  vid_t col;
  friend bool operator==(const Edge&, const Edge&) = default;
};

class GraphBuilder {
public:
  /// Empty builder (0 x 0); reset() gives it dimensions. Exists so builders
  /// can live in default-constructed slots (Workspace object leases).
  GraphBuilder() = default;

  GraphBuilder(vid_t num_rows, vid_t num_cols);

  /// Re-dimensions the builder and drops pending edges, keeping every
  /// buffer's capacity — the warm path between build_into() calls.
  void reset(vid_t num_rows, vid_t num_cols);

  /// Appends an edge; ids are validated at build() time.
  void add_edge(vid_t row, vid_t col) { edges_.push_back({row, col}); }

  /// Appends `count` edges for the caller to fill in place and returns them
  /// (uninitialized; every one must be written before build()). The slice
  /// is allocated here, so a generator can fill it inside an OpenMP region.
  /// It stays valid until the next call that adds edges.
  [[nodiscard]] std::span<Edge> append_edges(std::size_t count) {
    const std::size_t first = edges_.size();
    edges_.resize(first + count);
    return {edges_.data() + first, count};
  }

  void reserve(std::size_t n) { edges_.reserve(n); }

  [[nodiscard]] std::size_t pending_edges() const noexcept { return edges_.size(); }

  /// Assembles the graph. Duplicate edges collapse to one; throws on
  /// out-of-range ids. The builder is left empty with its memory released
  /// (one-shot use by generators and readers).
  [[nodiscard]] BipartiteGraph build();

  /// Pooled assembly: same result as build(), but the scratch arrays and
  /// `out`'s internal vectors reuse their capacity across calls (zero heap
  /// allocations once warm). Pending edges are cleared, capacity kept, so
  /// the builder is immediately reusable via reset().
  void build_into(BipartiteGraph& out);

private:
  /// Counting sort by row + per-row sort/unique + compaction, shared by both
  /// assembly modes. Leaves the CSR in row_ptr_/col_idx_ (capacity reused).
  void assemble();

  vid_t num_rows_ = 0;
  vid_t num_cols_ = 0;
  DefaultInitVector<Edge> edges_;
  // The assembled CSR (build() moves it into the graph, build_into() copies
  // it) and the count_scatter histograms, which the CSC build reuses; all
  // persist across build_into() calls.
  std::vector<eid_t> row_ptr_;
  std::vector<vid_t> col_idx_;
  DefaultInitVector<eid_t> hist_scratch_;
};

/// Convenience: assemble a graph directly from an edge list.
[[nodiscard]] BipartiteGraph graph_from_edges(vid_t num_rows, vid_t num_cols,
                                              const std::vector<Edge>& edges);

/// Convenience: dense adjacency given as initializer rows of column ids,
/// e.g. `graph_from_rows(3, 3, {{0,1},{1},{0,2}})`. Intended for tests.
[[nodiscard]] BipartiteGraph graph_from_rows(vid_t num_rows, vid_t num_cols,
                                             const std::vector<std::vector<vid_t>>& rows);

} // namespace bmh
