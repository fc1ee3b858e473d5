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
///  * `WeightedPick` is the pick: the inverse-CDF draw over one vertex's
///    adjacency, with a uniform fallback when every weight is zero. Built
///    once per vertex, it keeps the running sums of a small adjacency, so
///    every pick of that vertex reads the adjacency no more. The 1-pick
///    loop below and k_out.cpp's k-pick loop use it.
///  * `sample_csr_choices` is the 1-pick loop: every vertex of one CSR side
///    picks once, from its own forked stream. `sample_row_choices`,
///    `sample_col_choices` and the undirected `sample_choices_ws` are thin
///    wrappers that pass their side's arrays and lane salt.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "scaling/scaling.hpp"
#include "util/rng.hpp"

namespace bmh {

/// Vertices of at most this degree pick from their stored running sums;
/// larger ones walk their adjacency on every pick. 32 sums are 256 bytes of
/// stack; on powerlaw n = 2^17 avg 8, 1.9% of the rows (15.7% of the
/// edges) lie above it.
inline constexpr std::size_t kPrefixPickMaxDegree = 32;

/// Picks one of a vertex's neighbours `nbrs` (not empty) with probability
/// weight[v] / total, where `total` is the sum of weight over `nbrs` (the
/// inverse-CDF method of §3.1): each call draws r uniform in (0, total] and
/// returns the first neighbour where the running sum reaches r; drift that
/// never reaches r (a NaN or infinite sum) falls back to the last
/// neighbour. With total <= 0 (all-zero multipliers) the pick is uniform.
///
/// Construction sums the weights once. Up to kPrefixPickMaxDegree
/// neighbours it keeps every running sum, and a pick counts the sums below
/// r without a data-dependent branch; above it, a pick walks the adjacency
/// again. The stored sums are the walk's own, added in the same order, so
/// both forms pick the same neighbour as long as the weights are
/// non-negative (the sums then never decrease), as every scaling's are.
class WeightedPick {
public:
  WeightedPick(std::span<const vid_t> nbrs, std::span<const double> weight) noexcept
      : nbrs_(nbrs), weight_(weight) {
    double acc = 0.0;
    if (stored()) {
      for (std::size_t t = 0; t < nbrs.size(); ++t) {
        acc += weight[static_cast<std::size_t>(nbrs[t])];
        prefix_[t] = acc;
      }
    } else {
      for (const vid_t v : nbrs) acc += weight[static_cast<std::size_t>(v)];
    }
    total_ = acc;
  }

  [[nodiscard]] vid_t operator()(Rng& rng) const noexcept {
    const std::size_t degree = nbrs_.size();
    if (total_ <= 0.0) return nbrs_[static_cast<std::size_t>(rng.next_below(degree))];
    const double r = rng.next_double_open0() * total_;
    if (stored()) {
      // The walk stops at the first sum >= r, so it passes exactly the sums
      // that are not; a NaN sum is never >= r and counts too.
      std::size_t passed = 0;
      for (std::size_t t = 0; t < degree; ++t) passed += !(prefix_[t] >= r);
      return nbrs_[std::min(passed, degree - 1)];
    }
    double acc = 0.0;
    for (const vid_t v : nbrs_) {
      acc += weight_[static_cast<std::size_t>(v)];
      if (acc >= r) return v;
    }
    return nbrs_.back();
  }

private:
  [[nodiscard]] bool stored() const noexcept { return nbrs_.size() <= kPrefixPickMaxDegree; }

  std::span<const vid_t> nbrs_;
  std::span<const double> weight_;
  double total_;
  double prefix_[kPrefixPickMaxDegree];  // running sums, the first nbrs_.size() set
};

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
