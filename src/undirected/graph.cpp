#include "undirected/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace bmh {

UndirectedGraph UndirectedGraph::from_edges(
    vid_t num_vertices, const std::vector<std::pair<vid_t, vid_t>>& edges) {
  if (num_vertices < 0)
    throw std::invalid_argument("UndirectedGraph: negative vertex count");
  UndirectedGraph g;
  g.n_ = num_vertices;

  std::vector<std::pair<vid_t, vid_t>> sym;
  sym.reserve(2 * edges.size());
  for (const auto& [u, v] : edges) {
    if (u < 0 || u >= num_vertices || v < 0 || v >= num_vertices)
      throw std::out_of_range("UndirectedGraph: vertex id out of range");
    if (u == v) throw std::invalid_argument("UndirectedGraph: self-loop");
    sym.emplace_back(u, v);
    sym.emplace_back(v, u);
  }
  std::sort(sym.begin(), sym.end());
  sym.erase(std::unique(sym.begin(), sym.end()), sym.end());

  g.ptr_.assign(static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const auto& [u, v] : sym) ++g.ptr_[static_cast<std::size_t>(u) + 1];
  for (vid_t u = 0; u < num_vertices; ++u)
    g.ptr_[static_cast<std::size_t>(u) + 1] += g.ptr_[static_cast<std::size_t>(u)];
  g.adj_.resize(sym.size());
  {
    std::vector<eid_t> cursor(g.ptr_.begin(), g.ptr_.end() - 1);
    for (const auto& [u, v] : sym)
      g.adj_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
  }
  return g;
}

void UndirectedGraph::assign_symmetric_view(const BipartiteGraph& g) {
  const vid_t n = g.num_rows();
  if (n != g.num_cols())
    throw std::invalid_argument("assign_symmetric_view: graph is not square");
  // Under the pattern-symmetry precondition column u lists the same sorted
  // neighbours as row u, so each adjacency list lands sorted, as
  // from_edges leaves them.
  n_ = n;
  ptr_.resize(static_cast<std::size_t>(n) + 1);
  ptr_[0] = 0;
  for (vid_t u = 0; u < n; ++u) {
    const auto nbrs = g.col_neighbors(u);
    const bool diagonal = std::binary_search(nbrs.begin(), nbrs.end(), u);
    ptr_[static_cast<std::size_t>(u) + 1] =
        ptr_[static_cast<std::size_t>(u)] +
        static_cast<eid_t>(nbrs.size() - (diagonal ? 1 : 0));
  }
  adj_.resize(static_cast<std::size_t>(ptr_.back()));
  for (vid_t u = 0; u < n; ++u) {
    eid_t cursor = ptr_[static_cast<std::size_t>(u)];
    for (const vid_t v : g.col_neighbors(u))
      if (v != u) adj_[static_cast<std::size_t>(cursor++)] = v;
  }
}

void UndirectedGraph::assign_bipartite_union(const BipartiteGraph& g) {
  const vid_t rows = g.num_rows();
  const vid_t cols = g.num_cols();
  n_ = rows + cols;
  ptr_.resize(static_cast<std::size_t>(n_) + 1);
  ptr_[0] = 0;
  for (vid_t u = 0; u < rows; ++u)
    ptr_[static_cast<std::size_t>(u) + 1] =
        ptr_[static_cast<std::size_t>(u)] + g.row_degree(u);
  for (vid_t j = 0; j < cols; ++j)
    ptr_[static_cast<std::size_t>(rows + j) + 1] =
        ptr_[static_cast<std::size_t>(rows + j)] + g.col_degree(j);
  adj_.resize(static_cast<std::size_t>(ptr_.back()));
  // Both views are sorted, so each list is a copy of its row (shifted past
  // the row vertices) or its column, and comes out sorted.
  for (vid_t u = 0; u < rows; ++u) {
    eid_t cursor = ptr_[static_cast<std::size_t>(u)];
    for (const vid_t j : g.row_neighbors(u)) adj_[static_cast<std::size_t>(cursor++)] = rows + j;
  }
  for (vid_t j = 0; j < cols; ++j) {
    eid_t cursor = ptr_[static_cast<std::size_t>(rows + j)];
    for (const vid_t i : g.col_neighbors(j))
      adj_[static_cast<std::size_t>(cursor++)] = i;
  }
}

} // namespace bmh
