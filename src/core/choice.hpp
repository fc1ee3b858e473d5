#pragma once
/// \file choice.hpp
/// \brief Randomized neighbour selection from the scaled probability
/// density functions (the sampling step of paper §3.1, shared by
/// Algorithms 2 and 3, the k-out extension and the undirected heuristic).
///
/// Row i picks column j in A_i* with probability s_ij / sum_l s_il where
/// s_ij = dr[i]·dc[j]. The dr[i] factor is common to the whole row, so the
/// density reduces to dc[j] / sum_l dc[l] — each row only needs the column
/// multipliers (and symmetrically columns only need dr).
///
/// There is one copy of each piece:
///  * `weighted_pick` is the pick: one inverse-CDF walk over a vertex's
///    adjacency, with a uniform fallback when every weight is zero. The
///    1-pick loop below and k_out.cpp's k-pick loop call it.
///  * `sample_csr_choices` is the 1-pick loop: every vertex of one CSR side
///    picks once, from its own forked stream. `sample_row_choices`,
///    `sample_col_choices` and the undirected `sample_choices_ws` are thin
///    wrappers that pass their side's arrays and lane salt.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "scaling/scaling.hpp"
#include "util/rng.hpp"

namespace bmh {

/// Picks one of `nbrs` with probability weight[v] / total, where `total` is
/// the sum of weight over `nbrs` (computed by the caller, which may pick
/// several times from one vertex). Draws r uniform in (0, total] and returns
/// the first neighbour where the running sum reaches r (the inverse-CDF
/// method of §3.1); floating-point drift that overshoots the walk falls back
/// to the last neighbour. With total <= 0 (all-zero multipliers) the pick is
/// uniform. `nbrs` must not be empty.
[[nodiscard]] inline vid_t weighted_pick(std::span<const vid_t> nbrs,
                                         std::span<const double> weight, double total,
                                         Rng& rng) {
  if (total <= 0.0) return nbrs[static_cast<std::size_t>(rng.next_below(nbrs.size()))];
  const double r = rng.next_double_open0() * total;
  double acc = 0.0;
  for (const vid_t v : nbrs) {
    acc += weight[static_cast<std::size_t>(v)];
    if (acc >= r) return v;
  }
  return nbrs.back();
}

/// The 1-pick loop over one CSR side: vertex u (neighbours
/// adj[ptr[u] .. ptr[u+1])) picks one neighbour ∝ weight with the stream
/// Rng(seed).fork(salt ^ u); vertices with no neighbours get kNil. The
/// choices land in `out` (capacity reused). Deterministic in (ptr, adj,
/// weight, seed, salt) and independent of the thread count.
void sample_csr_choices(std::span<const eid_t> ptr, std::span<const vid_t> adj,
                        std::span<const double> weight, std::uint64_t seed,
                        std::uint64_t salt, std::vector<vid_t>& out);

/// One column choice per row, sampled ∝ dc over each row's neighbours, into
/// `out` (capacity reused — pass a workspace-leased vector). Rows with no
/// neighbours get kNil. Deterministic in (graph, dc, seed) and independent
/// of the thread count (per-row forked streams).
void sample_row_choices(const BipartiteGraph& g, const std::vector<double>& dc,
                        std::uint64_t seed, std::vector<vid_t>& out);

/// One row choice per column, sampled ∝ dr over each column's neighbours.
void sample_col_choices(const BipartiteGraph& g, const std::vector<double>& dr,
                        std::uint64_t seed, std::vector<vid_t>& out);

} // namespace bmh
