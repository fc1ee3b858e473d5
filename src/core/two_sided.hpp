#pragma once
/// \file two_sided.hpp
/// \brief TwoSidedMatch (paper Algorithm 3): the conjectured
/// 0.866-approximation heuristic.
///
/// Every row picks a column and every column picks a row from the scaled
/// probability densities; the union of the ≤ 2n chosen edges forms a
/// "1-out ∪ 1-in" subgraph on which Karp–Sipser is exact (Lemmas 1–3), run
/// here with the specialized parallel KarpSipserMT. No explicit subgraph is
/// materialized: the two choice arrays *are* the graph.

#include <cstdint>
#include <vector>

#include "core/karp_sipser_mt.hpp"
#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"
#include "scaling/scaling.hpp"

namespace bmh {

/// The per-side random choices (local ids; kNil for empty rows/columns).
struct TwoSidedChoices {
  std::vector<vid_t> rchoice;  ///< column picked by each row
  std::vector<vid_t> cchoice;  ///< row picked by each column
};

/// Samples the two choice vectors from the scaled densities (lines 2–7 of
/// Algorithm 3) into `out` (capacity reused). Exposed separately so the
/// analysis module can inspect the subgraph structure (Lemma 1) and benches
/// can time phases independently.
void sample_two_sided_choices_ws(const BipartiteGraph& g, const ScalingResult& scaling,
                                 std::uint64_t seed, TwoSidedChoices& out);

// Choices, the unified array, KarpSipserMT's arrays (and for
// two_sided_match_ws the scaling vectors) are leased from `ws`; the result
// lands in `out`. Warm calls are allocation-free.

/// Runs Algorithm 3 on a pre-scaled matrix.
void two_sided_from_scaling_ws(const BipartiteGraph& g, const ScalingResult& scaling,
                               std::uint64_t seed, KarpSipserMTStats* stats,
                               Workspace& ws, Matching& out);

/// Sinkhorn–Knopp for `scaling_iterations` then Algorithm 3.
/// `scaling_iterations = 0` gives the uniform-pick baseline of the tables.
void two_sided_match_ws(const BipartiteGraph& g, int scaling_iterations,
                        std::uint64_t seed, KarpSipserMTStats* stats, Workspace& ws,
                        Matching& out);

} // namespace bmh
