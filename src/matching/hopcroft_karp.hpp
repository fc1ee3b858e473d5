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

/// Computes a maximum matching, optionally warm-started from `initial`
/// (which must be a valid matching of `g`; pass nullptr for a cold start —
/// a greedy phase is used internally either way).
[[nodiscard]] Matching hopcroft_karp(const BipartiteGraph& g,
                                     const Matching* initial = nullptr);

/// Workspace-aware cold solve into `out` (capacity reused; warm calls are
/// allocation-free).
void hopcroft_karp_ws(const BipartiteGraph& g, Workspace& ws, Matching& out);

} // namespace bmh
