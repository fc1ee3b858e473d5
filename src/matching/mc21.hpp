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

/// Computes a maximum matching by successive augmentation into `out`
/// (capacity reused; warm calls are allocation-free).
void mc21_ws(const BipartiteGraph& g, Workspace& ws, Matching& out);

/// Warm start: in-place augmentation of `m` to a maximum matching. `m` must
/// be a valid matching of `g` (debug-asserted, not checked in release
/// builds).
void mc21_augment_ws(const BipartiteGraph& g, Matching& m, Workspace& ws);

} // namespace bmh
