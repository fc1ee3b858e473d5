#include "matching/greedy.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/workspace.hpp"
#include "util/rng.hpp"

namespace bmh {

void match_random_edges_ws(const BipartiteGraph& g, std::uint64_t seed, Workspace& ws,
                           Matching& out) {
  out.reset(g.num_rows(), g.num_cols());
  const eid_t nnz = g.num_edges();

  // Materialize (row of edge e) once; a random permutation of edge ids then
  // gives the uniform edge visit order.
  std::vector<vid_t>& edge_row =
      ws.vec<vid_t>("greedy.edge_row", static_cast<std::size_t>(nnz));
#pragma omp parallel for schedule(static)
  for (vid_t i = 0; i < g.num_rows(); ++i)
    for (eid_t e = g.row_ptr()[i]; e < g.row_ptr()[i + 1]; ++e)
      edge_row[static_cast<std::size_t>(e)] = i;

  std::vector<eid_t>& order =
      ws.vec<eid_t>("greedy.edge_order", static_cast<std::size_t>(nnz));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (eid_t k = nnz - 1; k > 0; --k) {
    const auto r = static_cast<eid_t>(rng.next_below(static_cast<std::uint64_t>(k) + 1));
    std::swap(order[static_cast<std::size_t>(k)], order[static_cast<std::size_t>(r)]);
  }

  for (const eid_t e : order) {
    const vid_t i = edge_row[static_cast<std::size_t>(e)];
    const vid_t j = g.col_idx()[static_cast<std::size_t>(e)];
    if (!out.row_matched(i) && !out.col_matched(j)) out.match(i, j);
  }
}

void match_random_vertices_ws(const BipartiteGraph& g, std::uint64_t seed, Workspace& ws,
                              Matching& out) {
  out.reset(g.num_rows(), g.num_cols());
  Rng rng(seed);

  // Random row visit order; each row picks a uniformly random *free*
  // neighbour via reservoir sampling over its adjacency list.
  std::vector<vid_t>& order =
      ws.vec<vid_t>("greedy.vertex_order", static_cast<std::size_t>(g.num_rows()));
  std::iota(order.begin(), order.end(), 0);
  for (vid_t k = g.num_rows() - 1; k > 0; --k) {
    const auto r = static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(k) + 1));
    std::swap(order[static_cast<std::size_t>(k)], order[static_cast<std::size_t>(r)]);
  }

  for (const vid_t i : order) {
    vid_t picked = kNil;
    std::uint64_t seen = 0;
    for (const vid_t j : g.row_neighbors(i)) {
      if (out.col_matched(j)) continue;
      ++seen;
      if (rng.next_below(seen) == 0) picked = j;
    }
    if (picked != kNil) out.match(i, picked);
  }
}

void match_min_degree_ws(const BipartiteGraph& g, Workspace& ws, Matching& out) {
  out.reset(g.num_rows(), g.num_cols());

  std::vector<vid_t>& order =
      ws.vec<vid_t>("greedy.degree_order", static_cast<std::size_t>(g.num_rows()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](vid_t a, vid_t b) {
    const eid_t da = g.row_degree(a), db = g.row_degree(b);
    return da != db ? da < db : a < b;
  });

  for (const vid_t i : order) {
    vid_t best = kNil;
    eid_t best_deg = 0;
    for (const vid_t j : g.row_neighbors(i)) {
      if (out.col_matched(j)) continue;
      const eid_t dj = g.col_degree(j);
      if (best == kNil || dj < best_deg) {
        best = j;
        best_deg = dj;
      }
    }
    if (best != kNil) out.match(i, best);
  }
}

} // namespace bmh
