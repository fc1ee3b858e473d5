#pragma once
/// \file builder.hpp
/// \brief COO → CSR assembly with duplicate removal.
///
/// Generators and file readers produce unsorted (row, col) pairs, possibly
/// with repeats; `GraphBuilder` assembles them into a `BipartiteGraph` via a
/// counting sort over rows (count_scatter.hpp's, on the ambient OpenMP team)
/// into scratch, a per-row sort+unique there, and one copy of the kept
/// columns into the graph's exact-size CSR. Its spent edge buffer then
/// stages the graph's CSC build. The result is the same at any team size.
/// k_out's subgraph needs none of this: it is written in place
/// (`BipartiteGraph::rebuild`), already sorted, from its picks.

#include <cstddef>
#include <span>

#include "graph/bipartite_graph.hpp"
#include "util/default_init.hpp"
#include "util/types.hpp"

namespace bmh {

class GraphBuilder {
public:
  GraphBuilder(vid_t num_rows, vid_t num_cols);

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
  /// out-of-range ids. The builder is left empty with its memory released.
  [[nodiscard]] BipartiteGraph build();

private:
  vid_t num_rows_ = 0;
  vid_t num_cols_ = 0;
  DefaultInitVector<Edge> edges_;
};

} // namespace bmh
