#pragma once
/// \file hopcroft_karp.hpp
/// \brief Exact maximum-cardinality matching (Hopcroft–Karp, O(sqrt(n)·tau)).
///
/// The solver plays three roles in the reproduction:
///   1. the reference exact solver: the tests certify push-relabel (which
///      computes sprank, below) and KarpSipserMT on the TwoSidedMatch
///      subgraphs (paper Lemmas 1–3) against it;
///   2. the engine's `augment` stage, which completes a heuristic matching
///      to a maximum one (`kind=analyze` jobs solve with push-relabel
///      instead, once per job);
///   3. the state-of-the-art solver whose jump-start the paper motivates
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

/// Greedy warm start shared by Hopcroft–Karp and push-relabel: each free
/// row takes its first free neighbour. Cuts the number of Hopcroft–Karp
/// phases roughly in half in practice.
void greedy_init(const BipartiteGraph& g, Matching& m);

/// In-place completion of `m` to a maximum matching — the jump-start /
/// pipeline-augment primitive. `m` must be a valid matching of `g`
/// (debug-asserted, not checked in release builds).
void hopcroft_karp_augment_ws(const BipartiteGraph& g, Matching& m, Workspace& ws);

/// Maximum matching cardinality (the structural rank of the matrix): the
/// denominator of every reported quality |M| / sprank(A) (paper Tables
/// 1–3). Solved by push-relabel with global relabeling (defined in
/// push_relabel.cpp), which is several times faster than Hopcroft–Karp on
/// the engine's instances; any maximum matching has the same cardinality.
[[nodiscard]] vid_t sprank(const BipartiteGraph& g);

/// Workspace-aware sprank; the solved matching itself is kept inside `ws`.
[[nodiscard]] vid_t sprank_ws(const BipartiteGraph& g, Workspace& ws);

} // namespace bmh
