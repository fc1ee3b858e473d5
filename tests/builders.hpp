#pragma once
/// \file builders.hpp
/// \brief Graph builders for the tests: instances stated by hand or composed
/// with a known structure (block sums, Dulmage–Mendelsohn form), and the
/// structural predicates that compare graphs. The library never calls
/// these; its own inputs come from `build_graph`'s generators and readers.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "graph/builder.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace bmh::testing {

/// Assembles a graph from an edge list (duplicates collapse).
[[nodiscard]] inline BipartiteGraph graph_from_edges(vid_t num_rows, vid_t num_cols,
                                                     const std::vector<Edge>& edges) {
  GraphBuilder b(num_rows, num_cols);
  b.reserve(edges.size());
  for (const Edge& e : edges) b.add_edge(e.row, e.col);
  return b.build();
}

/// Dense adjacency given as rows of column ids, e.g.
/// `graph_from_rows(3, 3, {{0,1},{1},{0,2}})`.
[[nodiscard]] inline BipartiteGraph graph_from_rows(
    vid_t num_rows, vid_t num_cols, const std::vector<std::vector<vid_t>>& rows) {
  if (rows.size() != static_cast<std::size_t>(num_rows))
    throw std::invalid_argument("graph_from_rows: row count mismatch");
  GraphBuilder b(num_rows, num_cols);
  for (vid_t i = 0; i < num_rows; ++i)
    for (const vid_t j : rows[static_cast<std::size_t>(i)]) b.add_edge(i, j);
  return b.build();
}

/// True iff edge (i, j) exists; ids out of range give false.
[[nodiscard]] inline bool has_edge(const BipartiteGraph& g, vid_t i, vid_t j) {
  if (i < 0 || i >= g.num_rows() || j < 0 || j >= g.num_cols()) return false;
  return std::ranges::find(g.row_neighbors(i), j) != g.row_neighbors(i).end();
}

/// Same dimensions and same edges. Rows are strictly ascending, so equal
/// edge sets are equal CSR arrays.
[[nodiscard]] inline bool structurally_equal(const BipartiteGraph& a, const BipartiteGraph& b) {
  return a.num_rows() == b.num_rows() && a.num_cols() == b.num_cols() &&
         std::ranges::equal(a.row_ptr(), b.row_ptr()) &&
         std::ranges::equal(a.col_idx(), b.col_idx());
}

/// Block-diagonal composition of `blocks`.
[[nodiscard]] inline BipartiteGraph make_block_diagonal(
    const std::vector<BipartiteGraph>& blocks) {
  vid_t rows = 0, cols = 0;
  for (const auto& g : blocks) {
    rows += g.num_rows();
    cols += g.num_cols();
  }
  GraphBuilder b(rows, cols);
  vid_t row_off = 0, col_off = 0;
  for (const auto& g : blocks) {
    for (vid_t i = 0; i < g.num_rows(); ++i)
      for (const vid_t j : g.row_neighbors(i)) b.add_edge(row_off + i, col_off + j);
    row_off += g.num_rows();
    col_off += g.num_cols();
  }
  return b.build();
}

/// A matrix in explicit Dulmage–Mendelsohn coarse form: an `h_rows`×`h_cols`
/// horizontal block (h_cols > h_rows, row-perfect matching planted), a
/// square block of size `s_n` with total support, and a vertical block
/// (`v_rows` > `v_cols`, column-perfect matching planted). The "*" coupling
/// entries above the diagonal blocks are filled randomly with
/// `coupling_per_row` entries; scaling must drive them to zero (§3.3).
[[nodiscard]] inline BipartiteGraph make_dm_structured(vid_t h_rows, vid_t h_cols, vid_t s_n,
                                                       vid_t v_rows, vid_t v_cols,
                                                       vid_t coupling_per_row,
                                                       std::uint64_t seed) {
  if (h_rows < 0 || h_cols < h_rows || s_n < 0 || v_cols < 0 || v_rows < v_cols)
    throw std::invalid_argument("make_dm_structured: block shape invalid");
  Rng rng(seed);
  const vid_t rows = h_rows + s_n + v_rows;
  const vid_t cols = h_cols + s_n + v_cols;
  GraphBuilder b(rows, cols);

  // Horizontal block: row i matched to column i, plus wrap-around extra
  // columns so every column of H is used by some row (keeps H connected
  // enough to have a row-perfect matching spread over all its columns).
  for (vid_t i = 0; i < h_rows; ++i) {
    b.add_edge(i, i);
    b.add_edge(i, h_rows + (i % std::max<vid_t>(1, h_cols - h_rows)));
  }
  // Square block with total support: a cycle (diagonal + superdiagonal).
  const vid_t s_row0 = h_rows, s_col0 = h_cols;
  for (vid_t i = 0; i < s_n; ++i) {
    b.add_edge(s_row0 + i, s_col0 + i);
    b.add_edge(s_row0 + i, s_col0 + (i + 1) % s_n);
  }
  // Vertical block: column j matched to row j, with a forward chain
  // (r_j, c_{j+1}) so the alternating BFS from the unmatched extra rows
  // reaches *every* V column — otherwise the tail columns would form
  // isolated matched pairs that canonically belong to S, not V.
  const vid_t v_row0 = h_rows + s_n, v_col0 = h_cols + s_n;
  for (vid_t j = 0; j < v_cols; ++j) {
    b.add_edge(v_row0 + j, v_col0 + j);
    if (j + 1 < v_cols) b.add_edge(v_row0 + j, v_col0 + j + 1);
  }
  for (vid_t i = v_cols; i < v_rows; ++i)
    b.add_edge(v_row0 + i, v_col0 + (i % std::max<vid_t>(1, v_cols)));

  // "*" coupling entries: strictly above the block diagonal in the coarse
  // form (H rows to S/V columns; S rows to V columns). These can never be in
  // a maximum matching; Sinkhorn–Knopp must drive them to zero (§3.3).
  for (vid_t i = 0; i < h_rows + s_n; ++i) {
    Rng local = rng.fork(static_cast<std::uint64_t>(i));
    const vid_t first_allowed = (i < h_rows) ? h_cols : h_cols + s_n;
    const vid_t span = cols - first_allowed;
    if (span <= 0) continue;
    for (vid_t t = 0; t < coupling_per_row; ++t)
      b.add_edge(i, first_allowed +
                        static_cast<vid_t>(local.next_below(static_cast<std::uint64_t>(span))));
  }
  return b.build();
}

} // namespace bmh::testing
