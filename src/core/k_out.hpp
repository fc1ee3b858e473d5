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
/// (`weighted_pick`, the §3.1 inverse-CDF walk); only the k-pick loop
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

#include <cstdint>
#include <vector>

#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"
#include "scaling/scaling.hpp"

namespace bmh {

/// k choices per row, sampled from the scaled density without replacement
/// (duplicates are re-drawn up to a bounded number of attempts, so rows
/// with fewer than k neighbours simply contribute all of them).
/// Result is row-major: picks of row i are choices[i*k .. i*k+k).
[[nodiscard]] std::vector<vid_t> sample_row_choices_k(const BipartiteGraph& g,
                                                      const std::vector<double>& dc,
                                                      int k, std::uint64_t seed);

/// Column-side mirror of sample_row_choices_k.
[[nodiscard]] std::vector<vid_t> sample_col_choices_k(const BipartiteGraph& g,
                                                      const std::vector<double>& dr,
                                                      int k, std::uint64_t seed);

/// Builds the (k-out ∪ k-in) subgraph from both sides' picks.
[[nodiscard]] BipartiteGraph k_out_subgraph(const BipartiteGraph& g,
                                            const ScalingResult& scaling, int k,
                                            std::uint64_t seed);

/// The k-out heuristic: scale, pick k per side, exact-match the subgraph.
/// k = 1 coincides with TwoSidedMatch up to the subgraph solver used.
[[nodiscard]] Matching k_out_match(const BipartiteGraph& g, int scaling_iterations,
                                   int k, std::uint64_t seed);

/// Workspace-aware variants. Sampling scratch, the scaling vectors, the
/// subgraph solver's arrays *and the subgraph's CSR construction* are all
/// leased from `ws` (pooled `GraphBuilder::build_into` into a workspace-kept
/// graph), so a warm k-out call performs zero heap allocations — same club
/// as every other heuristic.
void sample_row_choices_k(const BipartiteGraph& g, const std::vector<double>& dc, int k,
                          std::uint64_t seed, std::vector<vid_t>& out);
void sample_col_choices_k(const BipartiteGraph& g, const std::vector<double>& dr, int k,
                          std::uint64_t seed, std::vector<vid_t>& out);
/// Assembles the subgraph into `out`, whose vectors (and the builder
/// scratch behind them, tags "kout.*") reuse capacity across calls.
void k_out_subgraph_ws(const BipartiteGraph& g, const ScalingResult& scaling, int k,
                       std::uint64_t seed, Workspace& ws, BipartiteGraph& out);
/// The k-out heuristic on a pre-scaled matrix: builds the pooled subgraph
/// (workspace tag "kout.subgraph") and matches it exactly into `out`. The
/// registry's `k_out` and `k_out_match_ws` both run through here.
void k_out_from_scaling_ws(const BipartiteGraph& g, const ScalingResult& scaling, int k,
                           std::uint64_t seed, Workspace& ws, Matching& out);
void k_out_match_ws(const BipartiteGraph& g, int scaling_iterations, int k,
                    std::uint64_t seed, Workspace& ws, Matching& out);

} // namespace bmh
