#pragma once
/// \file mc21.hpp
/// \brief MC21-style exact matching: row-by-row augmenting DFS with
/// cheap-assignment lookahead (Duff's classic maximum transversal code).
///
/// Worst case O(n·tau) but very fast in practice; serves as an independent
/// exact oracle cross-checked against Hopcroft–Karp in the tests, and as
/// the solver whose jump-start benefit the examples demonstrate (the paper's
/// motivation: cheap heuristics initialize exact matchers [11, 24]).

#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bmh {

/// Computes a maximum matching by successive augmentation, optionally
/// warm-started from `initial` (must be valid for `g`).
[[nodiscard]] Matching mc21(const BipartiteGraph& g, const Matching* initial = nullptr);

/// Workspace-aware cold solve into `out` (capacity reused, no validation;
/// warm calls are allocation-free).
void mc21_ws(const BipartiteGraph& g, Workspace& ws, Matching& out);

} // namespace bmh
