#pragma once
/// \file karp_sipser.hpp
/// \brief The classic sequential Karp–Sipser heuristic (paper §2.1).
///
/// Phase 1 repeatedly matches a degree-one vertex with its unique neighbour
/// (an optimal decision) and removes both; Phase 2 picks a uniformly random
/// edge between two still-free vertices, matches it, and returns to Phase 1.
/// Runs in O(n + tau) amortized time.
///
/// Draw order. Phase 2 keeps a pool of every edge and draws from it by
/// swap-removal: each draw retires exactly one entry, matched or stale, and
/// Phase 1 never touches the RNG. So draw t is `rng.next_below(E - t)` for
/// t = 0, 1, ... whatever the matching state — up to the draw that matches
/// the last edge between two free vertices, after which every pool entry is
/// stale and the run stops (a count of such live edges, kept by each match,
/// says when; the matching is the one drawing the stale rest would give).
/// The implementation takes the draws a fixed ring ahead of use to prefetch
/// the pool entries and endpoint states they will touch. The output for a seed is the same
/// as drawing one index per step; any change to this order changes the
/// matching a seed produces.
///
/// This is the baseline the paper measures TwoSidedMatch against in
/// Table 1: on the adversarial family of Fig. 2, Phase 1 never fires and
/// the uniform random picks land in the full-but-useless R1×C1 block, so
/// its quality degrades as k grows, while TwoSidedMatch's scaling step
/// drives the probability of picking those entries to zero.

#include <cstdint>

#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bmh {

struct KarpSipserStats {
  vid_t phase1_matches = 0;  ///< optimal degree-one matches
  vid_t phase2_matches = 0;  ///< random-edge matches
  eid_t phase2_draws = 0;    ///< pool draws in Phase 2, up to the one that
                             ///< matched the last live edge; every draw
                             ///< retires its pool entry, so this never
                             ///< exceeds the number of edges
};

/// Runs Karp–Sipser with the given random seed; `stats`, when non-null,
/// receives the per-phase counters (accumulated, not reset).
[[nodiscard]] Matching karp_sipser(const BipartiteGraph& g, std::uint64_t seed,
                                   KarpSipserStats* stats = nullptr);

/// Workspace-aware variant: all scratch is leased from `ws` and the result
/// is written into `out` (capacity reused), so a warm call performs no heap
/// allocation. Identical output to karp_sipser() for the same seed.
void karp_sipser_ws(const BipartiteGraph& g, std::uint64_t seed, KarpSipserStats* stats,
                    Workspace& ws, Matching& out);

} // namespace bmh
