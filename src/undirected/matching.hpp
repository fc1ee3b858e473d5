#pragma once
/// \file undirected/matching.hpp
/// \brief Matching heuristics on general undirected graphs — the paper's
/// §5 "natural extension".
///
/// The bipartite machinery carries over with two changes:
///  1. Scaling: the adjacency matrix is symmetric, so a symmetry-preserving
///     doubly stochastic scaling (single multiplier vector d, s_uv =
///     d[u]·a_uv·d[v]) replaces the (dr, dc) pair. Each sweep divides d[u]
///     by the square root of its scaled row sum (the symmetric Ruiz step),
///     which keeps the scaling symmetric exactly.
///  2. The choice subgraph {{u, choice[u]}} is a functional graph whose
///     components still contain at most one cycle (the Lemma 1 argument
///     never used bipartiteness), but cycles may now be ODD, so the
///     bipartite Phase 2 of KarpSipserMT (each column takes its choice)
///     does not apply. Phase 2 here walks each remaining cycle, matching
///     alternate edges; an odd cycle necessarily leaves one vertex free.
///
/// Everything else is the bipartite code itself: `sample_choices_ws` is the
/// one 1-pick loop of core/choice.hpp (`sample_csr_choices`, lane salt 0)
/// over the symmetric adjacency, and `one_out_karp_sipser_ws` runs the one
/// out-one chain phase of core/karp_sipser_mt.hpp (`out_one_chains_ws`)
/// before its own cycle walk.
///
/// The one-sided analogue has the same 1 − 1/e guarantee argument; the
/// one-out Karp–Sipser variant is the direct analogue of TwoSidedMatch
/// (each vertex picks once — there is only one side).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/workspace.hpp"
#include "scaling/scaling.hpp"
#include "undirected/graph.hpp"
#include "util/types.hpp"

namespace bmh {

/// A matching on an undirected graph: mate[u] is u's partner or kNil.
struct UndirectedMatching {
  std::vector<vid_t> mate;

  UndirectedMatching() = default;
  explicit UndirectedMatching(vid_t n) : mate(static_cast<std::size_t>(n), kNil) {}

  [[nodiscard]] vid_t cardinality() const noexcept;
  [[nodiscard]] bool matched(vid_t u) const noexcept {
    return mate[static_cast<std::size_t>(u)] != kNil;
  }
};

/// Empty string when valid; otherwise a description of the violation.
[[nodiscard]] std::string describe_violation(const UndirectedGraph& g,
                                             const UndirectedMatching& m);
/// Allocation-free validity check (the serving path's per-job verifier);
/// describe_violation is the diagnostic counterpart.
[[nodiscard]] bool is_valid_matching(const UndirectedGraph& g,
                                     const UndirectedMatching& m);

/// Symmetric doubly stochastic scaling: returns a single multiplier vector
/// d with s_uv = d[u]·d[v] for each edge. `iterations` alternating sweeps
/// with re-symmetrization; error is max |sum_u s_uv − 1| over non-isolated
/// vertices.
struct SymmetricScaling {
  std::vector<double> d;
  int iterations = 0;
  double error = 0.0;
};
[[nodiscard]] SymmetricScaling scale_symmetric(const UndirectedGraph& g, int iterations);

/// Each vertex picks one neighbour ∝ d (the scaled PDF); kNil if isolated.
/// Deterministic in (graph, d, seed), thread-count independent.
[[nodiscard]] std::vector<vid_t> sample_choices(const UndirectedGraph& g,
                                                std::span<const double> d,
                                                std::uint64_t seed);

/// Karp–Sipser specialized to functional (1-out) subgraphs of an
/// undirected graph: exact maximum matching on {{u, choice[u]}}, handling
/// odd cycles. Phase 1 is Algorithm 4's parallel out-one chain phase
/// (`out_one_chains_ws`); Phase 2 claims each surviving cycle and matches
/// alternate edges. Every entry must be kNil or a vertex id in [0, n);
/// anything else throws std::invalid_argument.
[[nodiscard]] UndirectedMatching one_out_karp_sipser(vid_t n,
                                                     std::span<const vid_t> choice);

/// The undirected analogue of TwoSidedMatch: scale, let every vertex pick a
/// neighbour, and run the exact one-out Karp–Sipser on the choices.
[[nodiscard]] UndirectedMatching undirected_one_out_match(const UndirectedGraph& g,
                                                          int scaling_iterations,
                                                          std::uint64_t seed);

/// Greedy baseline: random vertex order, match with a random free
/// neighbour (1/2 guarantee).
[[nodiscard]] UndirectedMatching undirected_greedy(const UndirectedGraph& g,
                                                   std::uint64_t seed);

/// Exact maximum matching via reduction is NOT valid for general graphs
/// (the bipartite double cover overcounts); this is a maximal + augmenting
/// improvement restricted to length-3 alternating paths, giving a 2/3
/// approximation — used as the quality yardstick where exactness is not
/// required by the tests. For trees and bipartite-structured inputs the
/// tests compare against known optima instead.
[[nodiscard]] UndirectedMatching undirected_two_thirds(const UndirectedGraph& g,
                                                       std::uint64_t seed);

/// \name Workspace overloads
/// The serving-path forms: scratch is leased from `ws` (tags under "und.")
/// and results land in caller-provided objects with capacity reused, so a
/// warm worker runs every undirected algorithm allocation-free — the same
/// contract the bipartite `_ws` kernels certify in the workspace tests.
/// Each produces bit-identical results to its classic counterpart.
///@{

/// scale_symmetric into `out` (d/iterations/error fully reset).
void scale_symmetric_ws(const UndirectedGraph& g, int iterations, Workspace& ws,
                        SymmetricScaling& out);

/// sample_choices into a leased vector (valid until the tag is re-leased).
[[nodiscard]] std::vector<vid_t>& sample_choices_ws(const UndirectedGraph& g,
                                                    std::span<const double> d,
                                                    std::uint64_t seed, Workspace& ws);

/// one_out_karp_sipser into `out`.
void one_out_karp_sipser_ws(vid_t n, std::span<const vid_t> choice, Workspace& ws,
                            UndirectedMatching& out);

/// undirected_one_out_match into `out`. Returns the leased scaling it
/// sampled from (valid until "und.scaling" is re-leased), so callers can
/// report its iterations and error.
const SymmetricScaling& undirected_one_out_match_ws(const UndirectedGraph& g,
                                                    int scaling_iterations,
                                                    std::uint64_t seed, Workspace& ws,
                                                    UndirectedMatching& out);

/// undirected_greedy into `out`.
void undirected_greedy_ws(const UndirectedGraph& g, std::uint64_t seed, Workspace& ws,
                          UndirectedMatching& out);

/// undirected_two_thirds into `out`.
void undirected_two_thirds_ws(const UndirectedGraph& g, std::uint64_t seed,
                              Workspace& ws, UndirectedMatching& out);

///@}

} // namespace bmh
