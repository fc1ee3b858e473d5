#pragma once
/// \file transform.hpp
/// \brief Structural transforms: permutations and induced subgraphs.
///
/// Matching cardinality and sprank are invariant under row/column
/// permutations, and the heuristics' quality distributions must be too
/// (their probability densities depend only on the scaled entries, which
/// permute along). These transforms let the tests state those invariances
/// directly, and give downstream users the usual "renumber / take a
/// submatrix" operations.

#include <vector>

#include "graph/bipartite_graph.hpp"
#include "util/types.hpp"

namespace bmh {

/// Returns the graph with row i renamed row_perm[i] and column j renamed
/// col_perm[j]. Both arguments must be permutations of their index ranges.
[[nodiscard]] BipartiteGraph permuted(const BipartiteGraph& g,
                                      const std::vector<vid_t>& row_perm,
                                      const std::vector<vid_t>& col_perm);

/// Random permutation of {0..n-1}, deterministic in the seed.
[[nodiscard]] std::vector<vid_t> make_permutation(vid_t n, std::uint64_t seed);

/// The subgraph induced by keeping rows with keep_row[i] and columns with
/// keep_col[j]; kept vertices are renumbered densely in original order.
/// The mapping old-id -> new-id is returned through the optional out
/// parameters (kNil for dropped vertices).
[[nodiscard]] BipartiteGraph induced_subgraph(const BipartiteGraph& g,
                                              const std::vector<bool>& keep_row,
                                              const std::vector<bool>& keep_col,
                                              std::vector<vid_t>* row_map = nullptr,
                                              std::vector<vid_t>* col_map = nullptr);

/// True iff the graph is square and its adjacency structure is symmetric
/// (edge (i, j) present iff (j, i) is): each sorted row list equals the
/// same-numbered sorted column list. Allocates no scratch (it runs on the
/// kind=undirected-match serving path to pick the conversion rule).
[[nodiscard]] bool is_pattern_symmetric(const BipartiteGraph& g);

/// Extracts one coarse Dulmage–Mendelsohn block (or any labeled part) as a
/// standalone graph: convenience over induced_subgraph for the DM tests.
template <typename Label>
[[nodiscard]] BipartiteGraph extract_part(const BipartiteGraph& g,
                                          const std::vector<Label>& row_label,
                                          const std::vector<Label>& col_label,
                                          Label wanted) {
  std::vector<bool> keep_row(row_label.size()), keep_col(col_label.size());
  for (std::size_t i = 0; i < row_label.size(); ++i) keep_row[i] = row_label[i] == wanted;
  for (std::size_t j = 0; j < col_label.size(); ++j) keep_col[j] = col_label[j] == wanted;
  return induced_subgraph(g, keep_row, keep_col);
}

} // namespace bmh
