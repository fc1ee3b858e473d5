#pragma once
/// \file dulmage_mendelsohn.hpp
/// \brief Dulmage–Mendelsohn decomposition (paper §3.3).
///
/// The canonical block-triangular form splits a matrix into a horizontal
/// block H (more columns than rows, row-perfect matching), a square block S
/// (perfect matching), and a vertical block V (more rows than columns,
/// column-perfect matching). The paper uses the DM structure to argue why
/// the heuristics remain sound without total support: Sinkhorn–Knopp drives
/// the coupling "*" entries — which can never belong to a maximum matching —
/// toward zero, so the random choices concentrate on the useful blocks.
/// The tests verify exactly that behaviour.

#include <vector>

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"
#include "util/types.hpp"

namespace bmh {

enum class DmPart : unsigned char {
  Horizontal,  ///< H: underdetermined part
  Square,      ///< S: well-determined part
  Vertical,    ///< V: overdetermined part
};

/// Every field depends on the graph alone, not on which maximum matching
/// it was computed from.
struct DmDecomposition {
  std::vector<DmPart> row_part;  ///< per row vertex
  std::vector<DmPart> col_part;  ///< per column vertex
  vid_t sprank = 0;

  vid_t h_rows = 0, h_cols = 0;
  vid_t s_size = 0;  ///< S is square: s_size rows and columns
  vid_t v_rows = 0, v_cols = 0;

  /// The fine decomposition of S: its strongly connected blocks
  /// S_1, ..., S_b in the matching-directed column graph. Block id per
  /// column, kNil outside S; ids are dense in [0, num_blocks). Ordering the
  /// blocks by id gives S's block lower triangular form: an entry (i, j) of
  /// S has col_block[j] <= row_block[i].
  std::vector<vid_t> col_block;
  /// Block id per row: the block of the row's matched column (S rows are
  /// always matched); kNil outside S.
  std::vector<vid_t> row_block;
  vid_t num_blocks = 0;

  /// Every edge can be put in a perfect matching: the matrix is square, has
  /// a perfect matching, and no edge leaves its fine block. This is the
  /// paper's standing "total support" assumption. A matrix with no rows
  /// has it.
  bool total_support = false;
  /// Square with a perfect matching and a single fine block spanning all
  /// vertices (so total support holds too). The 0x0 matrix is not.
  bool fully_indecomposable = false;
};

/// Decomposes `g` given one of its maximum matchings (debug-asserted):
/// two alternating sweeps (from the free columns for H, from the free rows
/// for V) and one SCC pass over S give every field. O(n + tau).
[[nodiscard]] DmDecomposition dulmage_mendelsohn(const BipartiteGraph& g,
                                                 const Matching& maximum);

} // namespace bmh
