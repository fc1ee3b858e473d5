#pragma once
/// \file hopcroft_karp.hpp
/// \brief Exact maximum-cardinality matching (Hopcroft–Karp, O(sqrt(n)·tau)).
///
/// The solver plays two roles in the reproduction:
///   1. the reference exact solver: the tests certify push-relabel (the
///      engine's one exact solve, behind `augment`, sprank and
///      `kind=analyze`) and KarpSipserMT on the TwoSidedMatch subgraphs
///      (paper Lemmas 1–3) against it, and it stays a table row;
///   2. the state-of-the-art solver whose jump-start the paper motivates
///      (`bench_paper jump_start`).

#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bmh {

/// Computes a maximum matching into `out` (capacity reused; warm calls are
/// allocation-free). A greedy phase runs first.
void hopcroft_karp_ws(const BipartiteGraph& g, Workspace& ws, Matching& out);

/// Warm start: in-place completion of `m` to a maximum matching (the greedy
/// phase extends it first). `m` must be a valid matching of `g`
/// (debug-asserted, not checked in release builds).
void hopcroft_karp_augment_ws(const BipartiteGraph& g, Matching& m, Workspace& ws);

} // namespace bmh
