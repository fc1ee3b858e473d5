#pragma once
/// \file push_relabel.hpp
/// \brief Push-relabel maximum bipartite matching (the paper's ref. [21]:
/// Kaya, Langguth, Manne, Uçar, "Push-relabel based algorithms for the
/// maximum transversal problem").
///
/// The engine's one exact solve: it completes `augment=1` matchings, it
/// computes sprank (below: the quality denominator and `kind=analyze
/// algo=sprank`) and the maximum matching behind `kind=analyze` dm and
/// koenig, and it matches k_out's subgraph. Hopcroft–Karp stays the
/// reference the tests certify it against.
///
/// Formulation: each free row holds one unit of excess; rows are pushed to
/// columns along admissible arcs (psi(row) = psi(col) + 1). Pushing onto a
/// matched column kicks the previous owner back to excess (a "double
/// push"), and the column's label becomes psi(row) + 1; relabeling sets
/// psi(row) = min over neighbours + 1. Free rows are processed in FIFO
/// order after a greedy initialization.
///
/// Global relabeling: a BFS from the free columns over the column-major
/// side sets every label to its exact alternating distance (free column 0,
/// row = column + 1, matched column = mate row + 1). It runs once up front
/// and again after every num_rows + num_cols relabels, so each costs O(tau)
/// amortized against O(n) relabels. Rows it does not reach have no
/// augmenting path and retire at once, which is what keeps sprank-deficient
/// inputs from climbing labels one step at a time. The worst case stays
/// O(n·tau). On n = 2^17 random, power-law and planted instances and their
/// 2-out subgraphs it runs 3–5× faster than Hopcroft–Karp (bench_micro's
/// BM_PushRelabel); on road-like near-cycles HK is still faster. Serial and
/// deterministic.

#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bmh {

/// Computes a maximum matching with the push-relabel method, optionally
/// warm-started from `initial` (must be a valid matching of `g`).
[[nodiscard]] Matching push_relabel(const BipartiteGraph& g,
                                    const Matching* initial = nullptr);

/// Workspace-aware cold solve into `out` (capacity reused; warm calls are
/// allocation-free).
void push_relabel_ws(const BipartiteGraph& g, Workspace& ws, Matching& out);

/// In-place completion of `m` to a maximum matching. `m` must be a valid
/// matching of `g` (debug-asserted, not checked in release builds).
void push_relabel_augment_ws(const BipartiteGraph& g, Matching& m, Workspace& ws);

/// Maximum matching cardinality (the structural rank of the matrix): the
/// denominator of every reported quality |M| / sprank(A) (paper Tables
/// 1–3). Any maximum matching has the same cardinality.
[[nodiscard]] vid_t sprank(const BipartiteGraph& g);

/// Workspace-aware sprank; the solved matching itself is kept inside `ws`.
[[nodiscard]] vid_t sprank_ws(const BipartiteGraph& g, Workspace& ws);

} // namespace bmh
