#pragma once
/// \file scaling.hpp
/// \brief Doubly stochastic scaling of (0,1)-matrices — shared interface.
///
/// Both heuristics start by scaling the adjacency matrix A to a doubly
/// stochastic S = D_R A D_C (paper §2.2). Only the two diagonal vectors are
/// stored: the scaled entry is s_ij = dr[i] * dc[j] because a_ij is 1.
///
/// For matrices with total support, Sinkhorn–Knopp converges to a doubly
/// stochastic limit; without total support the iteration instead drives the
/// entries that cannot be in a maximum matching toward zero (§3.3), which is
/// exactly what makes the heuristics robust on sprank-deficient inputs.

#include <vector>

#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "util/types.hpp"

namespace bmh {

struct ScalingOptions {
  /// Iteration cap. The paper runs just a few iterations (0/1/5/10); with
  /// alpha-relaxed column sums the quality bound degrades gracefully
  /// (§3.3: alpha = 0.92 still gives ratio ~0.6015).
  int max_iterations = 10;
  /// Early-exit tolerance on the convergence error (0 disables early exit,
  /// forcing exactly max_iterations — used to reproduce the paper's fixed
  /// iteration counts).
  double tolerance = 0.0;
};

struct ScalingResult {
  std::vector<double> dr;  ///< row multipliers, size num_rows
  std::vector<double> dc;  ///< column multipliers, size num_cols
  int iterations = 0;      ///< iterations actually performed
  double error = 0.0;      ///< convergence error after the last iteration
  bool converged = false;  ///< error <= tolerance (when tolerance > 0)

  /// Scaled entry s_ij = dr[i] * dc[j]; valid only where a_ij = 1.
  [[nodiscard]] double entry(vid_t i, vid_t j) const noexcept {
    return dr[static_cast<std::size_t>(i)] * dc[static_cast<std::size_t>(j)];
  }
};

/// Identity scaling (dr = dc = 1) into `out`: the "0 iterations" rows of
/// the paper's tables, i.e. sampling neighbours from the uniform
/// distribution. `compute_error = false` skips the O(nnz) error sweep for
/// callers that only need the multipliers (the error field is then 0, not
/// meaningful).
void identity_scaling_ws(const BipartiteGraph& g, Workspace& ws, ScalingResult& out,
                         bool compute_error = true);

/// The paper's scaling error: max over non-empty rows and columns of
/// |sum(S row/col) - 1|. (After an SK iteration the row sums are exactly 1,
/// so this reduces to the column-sum error the paper reports.) The two sum
/// vectors are leased from `ws`.
[[nodiscard]] double scaling_error_ws(const BipartiteGraph& g, const ScalingResult& s,
                                      Workspace& ws);

/// Row sums of S = D_R A D_C into `out` (length num_rows, capacity reused).
void scaled_row_sums(const BipartiteGraph& g, const ScalingResult& s,
                     std::vector<double>& out);

/// Column sums of S into `out` (length num_cols, capacity reused).
void scaled_col_sums(const BipartiteGraph& g, const ScalingResult& s,
                     std::vector<double>& out);

} // namespace bmh
