#include "core/k_out.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/choice.hpp"
#include "core/workspace.hpp"
#include "graph/builder.hpp"
#include "matching/push_relabel.hpp"
#include "scaling/sinkhorn_knopp.hpp"

namespace bmh {

namespace {

/// The k-pick loop over one CSR side (the layout of sample_csr_choices):
/// k draws of weighted_pick per vertex with bounded-retry de-duplication.
/// Writes into `out` (capacity reused by workspace-leased callers).
void sample_k(std::span<const eid_t> ptr, std::span<const vid_t> adj,
              std::span<const double> weight, int k, std::uint64_t seed,
              std::uint64_t salt, std::vector<vid_t>& out) {
  if (k < 1) throw std::invalid_argument("sample_k: k must be >= 1");
  const auto n = static_cast<vid_t>(ptr.empty() ? 0 : ptr.size() - 1);
  out.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(k), kNil);
  const Rng root(seed);
#pragma omp parallel for schedule(dynamic, 512)
  for (vid_t u = 0; u < n; ++u) {
    const auto first = static_cast<std::size_t>(ptr[static_cast<std::size_t>(u)]);
    const auto last = static_cast<std::size_t>(ptr[static_cast<std::size_t>(u) + 1]);
    if (first == last) continue;
    const std::span<const vid_t> nbrs = adj.subspan(first, last - first);
    Rng rng = root.fork(salt ^ static_cast<std::uint64_t>(u));
    auto* slot = out.data() + static_cast<std::size_t>(u) * static_cast<std::size_t>(k);

    if (static_cast<std::size_t>(k) >= nbrs.size()) {
      // Take the whole neighbourhood.
      for (std::size_t t = 0; t < nbrs.size(); ++t) slot[t] = nbrs[t];
      continue;
    }
    double total = 0.0;
    for (const vid_t v : nbrs) total += weight[static_cast<std::size_t>(v)];
    int filled = 0;
    for (int attempt = 0; attempt < 8 * k && filled < k; ++attempt) {
      const vid_t picked = weighted_pick(nbrs, weight, total, rng);
      bool duplicate = false;
      for (int t = 0; t < filled; ++t) duplicate |= (slot[t] == picked);
      if (!duplicate) slot[filled++] = picked;
    }
  }
}

} // namespace

std::vector<vid_t> sample_row_choices_k(const BipartiteGraph& g,
                                        const std::vector<double>& dc, int k,
                                        std::uint64_t seed) {
  std::vector<vid_t> out;
  sample_row_choices_k(g, dc, k, seed, out);
  return out;
}

void sample_row_choices_k(const BipartiteGraph& g, const std::vector<double>& dc, int k,
                          std::uint64_t seed, std::vector<vid_t>& out) {
  if (dc.size() != static_cast<std::size_t>(g.num_cols()))
    throw std::invalid_argument("sample_row_choices_k: dc size mismatch");
  sample_k(g.row_ptr(), g.col_idx(), dc, k, seed, 0x6b4f55545f524f57ull, out);
}

std::vector<vid_t> sample_col_choices_k(const BipartiteGraph& g,
                                        const std::vector<double>& dr, int k,
                                        std::uint64_t seed) {
  std::vector<vid_t> out;
  sample_col_choices_k(g, dr, k, seed, out);
  return out;
}

void sample_col_choices_k(const BipartiteGraph& g, const std::vector<double>& dr, int k,
                          std::uint64_t seed, std::vector<vid_t>& out) {
  if (dr.size() != static_cast<std::size_t>(g.num_rows()))
    throw std::invalid_argument("sample_col_choices_k: dr size mismatch");
  sample_k(g.col_ptr(), g.row_idx(), dr, k, seed, 0x6b4f55545f434f4cull, out);
}

namespace {

/// `k` capped at the largest degree of one side (its `ptr`), but not below
/// 1, so a bad k (< 1) still reaches sample_k's check. A vertex whose
/// degree is at most k takes its whole neighbourhood and draws nothing, so
/// the capped k picks the same subgraph with n·max-degree slots, not n·k.
int clamp_k(int k, std::span<const eid_t> ptr) {
  eid_t max_degree = 1;
  for (std::size_t u = 1; u < ptr.size(); ++u)
    max_degree = std::max(max_degree, ptr[u] - ptr[u - 1]);
  return static_cast<int>(std::min(static_cast<eid_t>(k), max_degree));
}

/// Feeds both sides' picks into `b` (reset to g's dimensions by the
/// caller); each side's picks are laid out with that side's stride.
void add_k_out_edges(GraphBuilder& b, const BipartiteGraph& g,
                     const std::vector<vid_t>& row_picks, int row_k,
                     const std::vector<vid_t>& col_picks, int col_k) {
  b.reserve(static_cast<std::size_t>(g.num_rows()) * static_cast<std::size_t>(row_k) +
            static_cast<std::size_t>(g.num_cols()) * static_cast<std::size_t>(col_k));
  for (vid_t i = 0; i < g.num_rows(); ++i)
    for (int t = 0; t < row_k; ++t) {
      const vid_t j =
          row_picks[static_cast<std::size_t>(i) * row_k + static_cast<std::size_t>(t)];
      if (j != kNil) b.add_edge(i, j);
    }
  for (vid_t j = 0; j < g.num_cols(); ++j)
    for (int t = 0; t < col_k; ++t) {
      const vid_t i =
          col_picks[static_cast<std::size_t>(j) * col_k + static_cast<std::size_t>(t)];
      if (i != kNil) b.add_edge(i, j);
    }
}

} // namespace

BipartiteGraph k_out_subgraph(const BipartiteGraph& g, const ScalingResult& scaling,
                              int k, std::uint64_t seed) {
  BipartiteGraph out;
  k_out_subgraph_ws(g, scaling, k, seed, Workspace::for_this_thread(), out);
  return out;
}

void k_out_subgraph_ws(const BipartiteGraph& g, const ScalingResult& scaling, int k,
                       std::uint64_t seed, Workspace& ws, BipartiteGraph& out) {
  std::vector<vid_t>& row_picks = ws.buf<vid_t>("kout.row_picks");
  std::vector<vid_t>& col_picks = ws.buf<vid_t>("kout.col_picks");
  const int row_k = clamp_k(k, g.row_ptr());
  const int col_k = clamp_k(k, g.col_ptr());
  sample_row_choices_k(g, scaling.dc, row_k, seed, row_picks);
  sample_col_choices_k(g, scaling.dr, col_k, seed + 0x9e3779b97f4a7c15ULL, col_picks);
  GraphBuilder& b = ws.obj<GraphBuilder>("kout.builder");
  b.reset(g.num_rows(), g.num_cols());
  add_k_out_edges(b, g, row_picks, row_k, col_picks, col_k);
  b.build_into(out);
}

Matching k_out_match(const BipartiteGraph& g, int scaling_iterations, int k,
                     std::uint64_t seed) {
  Matching m;
  k_out_match_ws(g, scaling_iterations, k, seed, Workspace::for_this_thread(), m);
  return m;
}

void k_out_match_ws(const BipartiteGraph& g, int scaling_iterations, int k,
                    std::uint64_t seed, Workspace& ws, Matching& out) {
  ScalingResult& scaling = ws.obj<ScalingResult>("kout.scaling");
  scale_sinkhorn_knopp_or_identity_ws(g, scaling_iterations, ws, scaling);
  k_out_from_scaling_ws(g, scaling, k, seed, ws, out);
}

void k_out_from_scaling_ws(const BipartiteGraph& g, const ScalingResult& scaling, int k,
                           std::uint64_t seed, Workspace& ws, Matching& out) {
  BipartiteGraph& sub = ws.obj<BipartiteGraph>("kout.subgraph");
  k_out_subgraph_ws(g, scaling, k, seed, ws, sub);
  push_relabel_ws(sub, ws, out);
}

} // namespace bmh
