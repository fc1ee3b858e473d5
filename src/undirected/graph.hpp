#pragma once
/// \file undirected/graph.hpp
/// \brief Undirected graph substrate for the paper's §5 extension.
///
/// The paper closes with: "We are investigating variants of the proposed
/// heuristics for finding approximate matchings in undirected graphs. The
/// algorithms and results extend naturally…". This module provides that
/// extension: a CSR symmetric graph, a symmetry-preserving doubly
/// stochastic scaling, and the 1-out choice machinery adapted to the
/// one-sided (single vertex class) setting.

#include <span>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "util/types.hpp"

namespace bmh {

/// Simple undirected graph in CSR form; the adjacency is stored
/// symmetrically (each edge appears in both endpoint lists). Self-loops are
/// rejected (they cannot participate in a matching).
class UndirectedGraph {
public:
  UndirectedGraph() = default;

  /// Builds from an edge list; duplicates collapse, (u,v) implies (v,u).
  static UndirectedGraph from_edges(vid_t num_vertices,
                                    const std::vector<std::pair<vid_t, vid_t>>& edges);

  [[nodiscard]] vid_t num_vertices() const noexcept { return n_; }
  /// Number of undirected edges (each counted once).
  [[nodiscard]] eid_t num_edges() const noexcept { return adj_.empty() ? 0 : static_cast<eid_t>(adj_.size()) / 2; }

  [[nodiscard]] std::span<const vid_t> neighbors(vid_t u) const noexcept {
    return {adj_.data() + ptr_[static_cast<std::size_t>(u)],
            static_cast<std::size_t>(ptr_[static_cast<std::size_t>(u) + 1] -
                                     ptr_[static_cast<std::size_t>(u)])};
  }
  [[nodiscard]] eid_t degree(vid_t u) const noexcept {
    return ptr_[static_cast<std::size_t>(u) + 1] - ptr_[static_cast<std::size_t>(u)];
  }

  /// Raw CSR arrays (offsets of length n + 1, symmetric adjacency), for
  /// kernels shared with one side of a BipartiteGraph.
  [[nodiscard]] std::span<const eid_t> ptr() const noexcept { return ptr_; }
  [[nodiscard]] std::span<const vid_t> adj() const noexcept { return adj_; }

  /// In-place rebuild as the *symmetric view* of a square pattern-symmetric
  /// bipartite graph: vertex u's neighbours are row u's columns, diagonal
  /// entries dropped (self-loops cannot be matched). Preconditions
  /// (squareness, is_pattern_symmetric) are the caller's — see
  /// engine/pipeline.hpp; violating them yields an asymmetric adjacency.
  /// Capacity is reused, so warm calls on same-shaped graphs are
  /// allocation-free (the kind=undirected-match serving path).
  void assign_symmetric_view(const BipartiteGraph& g);

  /// In-place rebuild as the *bipartite union* graph: vertices are the rows
  /// followed by the columns (column j becomes vertex num_rows + j), with an
  /// edge per structural nonzero. Defined for every bipartite graph; an
  /// undirected matching on it is exactly a bipartite matching of `g`.
  /// Capacity is reused like assign_symmetric_view.
  void assign_bipartite_union(const BipartiteGraph& g);

private:
  vid_t n_ = 0;
  std::vector<eid_t> ptr_{0};
  std::vector<vid_t> adj_;
};

} // namespace bmh
