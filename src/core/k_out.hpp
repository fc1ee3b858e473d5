#pragma once
/// \file k_out.hpp
/// \brief k-out generalization of TwoSidedMatch (extension).
///
/// TwoSidedMatch builds a (1-out ∪ 1-in) subgraph. Walkup [31] showed that
/// random *2-out* bipartite graphs already have perfect matchings a.a.s.,
/// and Karoński–Pittel [18] sharpened the threshold to (1 + e^{-1})-out.
/// This module lets each side pick k neighbours from the scaled densities
/// and finds a maximum matching of the resulting ≤ 2kn-edge subgraph.
///
/// Each of the k picks is the one weighted pick of choice.hpp
/// (`WeightedPick`, the §3.1 inverse-CDF draw), built once per vertex, so
/// its k draws share one pass over the weights; only the k-pick loop
/// around it (whole neighbourhood when it has ≤ k vertices, bounded-retry
/// de-duplication otherwise) lives here, apart from the 1-pick
/// `sample_csr_choices`, so the heuristics' sampling loop carries none of
/// the retry bookkeeping.
///
/// For k >= 2 the subgraph components are no longer guaranteed to contain
/// at most one cycle, so Karp–Sipser is *not* exact on them; push-relabel
/// with global relabeling (matching/push_relabel.hpp) solves the (still
/// small) subgraph instead, in `k_out_from_scaling_ws` — the one place the
/// subgraph solver is chosen. The trade: more edges and a slower subgraph
/// solve buy a quality that approaches 1 rapidly with k — quantified by
/// `bench_paper extension_kout`.
///
/// Every pick is a neighbour in G, so each row of the subgraph is G's row
/// filtered by "i picked j, or j picked i", and equally the row's own picks
/// merged with the columns that picked it; columns alike. k_out_subgraph_ws
/// filters sparse G (work in G's edges) and merges on dense G (work in the
/// picks), straight into a pooled graph (`BipartiteGraph::rebuild`): no
/// edge list and no sort of it, and the same arrays at any OpenMP team size.

#include <cstdint>
#include <vector>

#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"
#include "scaling/scaling.hpp"

namespace bmh {

/// k choices per row, sampled from the scaled density without replacement
/// (duplicates are re-drawn up to a bounded number of attempts, so rows
/// with fewer than k neighbours simply contribute all of them), into `out`
/// (capacity reused). Row-major: picks of row i are out[i*k .. i*k+k).
void sample_row_choices_k(const BipartiteGraph& g, const std::vector<double>& dc, int k,
                          std::uint64_t seed, std::vector<vid_t>& out);

/// Column-side mirror of sample_row_choices_k.
void sample_col_choices_k(const BipartiteGraph& g, const std::vector<double>& dr, int k,
                          std::uint64_t seed, std::vector<vid_t>& out);

// Sampling scratch, the scaling vectors, the subgraph solver's arrays *and
// the subgraph itself* are all leased from `ws` (assembled into a
// workspace-kept graph's reused vectors), so a warm k-out call performs
// zero heap allocations — same club as every other heuristic.

/// Builds the (k-out ∪ k-in) subgraph of `g` from both sides' picks into
/// `out` (which must not be `g`: throws std::invalid_argument), whose
/// vectors, like the pick buffers and the assembly's scratch (tags
/// "kout.*"), reuse their capacity across calls. Each side samples with k
/// capped at its largest degree, which picks the same subgraph from fewer
/// pick slots. The assembly's scratch is one entry per edge of g when g is
/// sparse (at most 3 edges per pick slot), otherwise one per pick and one
/// offset per vertex.
void k_out_subgraph_ws(const BipartiteGraph& g, const ScalingResult& scaling, int k,
                       std::uint64_t seed, Workspace& ws, BipartiteGraph& out);
/// The k-out heuristic on a pre-scaled matrix: builds the pooled subgraph
/// (workspace tag "kout.subgraph") and matches it exactly into `out`: the
/// kernel of the registry's `k_out` row. k = 1 coincides with TwoSidedMatch
/// up to the subgraph solver used.
void k_out_from_scaling_ws(const BipartiteGraph& g, const ScalingResult& scaling, int k,
                           std::uint64_t seed, Workspace& ws, Matching& out);

} // namespace bmh
