#include "graph/transform.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "graph/builder.hpp"
#include "util/rng.hpp"

namespace bmh {

namespace {

void check_permutation(const std::vector<vid_t>& p, vid_t n, const char* what) {
  if (p.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument(std::string(what) + ": size mismatch");
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (const vid_t v : p) {
    if (v < 0 || v >= n || seen[static_cast<std::size_t>(v)])
      throw std::invalid_argument(std::string(what) + ": not a permutation");
    seen[static_cast<std::size_t>(v)] = true;
  }
}

} // namespace

BipartiteGraph permuted(const BipartiteGraph& g, const std::vector<vid_t>& row_perm,
                        const std::vector<vid_t>& col_perm) {
  check_permutation(row_perm, g.num_rows(), "permuted(row_perm)");
  check_permutation(col_perm, g.num_cols(), "permuted(col_perm)");
  GraphBuilder b(g.num_rows(), g.num_cols());
  b.reserve(static_cast<std::size_t>(g.num_edges()));
  for (vid_t i = 0; i < g.num_rows(); ++i)
    for (const vid_t j : g.row_neighbors(i))
      b.add_edge(row_perm[static_cast<std::size_t>(i)],
                 col_perm[static_cast<std::size_t>(j)]);
  return b.build();
}

std::vector<vid_t> make_permutation(vid_t n, std::uint64_t seed) {
  std::vector<vid_t> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  Rng rng(seed);
  for (vid_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return p;
}

bool is_pattern_symmetric(const BipartiteGraph& g) {
  if (g.num_rows() != g.num_cols()) return false;
  // E is symmetric iff every row's list equals the same-numbered column's;
  // both views are sorted, so that is a span compare.
  for (vid_t i = 0; i < g.num_rows(); ++i)
    if (!std::ranges::equal(g.row_neighbors(i), g.col_neighbors(i))) return false;
  return true;
}

BipartiteGraph induced_subgraph(const BipartiteGraph& g, const std::vector<bool>& keep_row,
                                const std::vector<bool>& keep_col,
                                std::vector<vid_t>* row_map, std::vector<vid_t>* col_map) {
  if (keep_row.size() != static_cast<std::size_t>(g.num_rows()) ||
      keep_col.size() != static_cast<std::size_t>(g.num_cols()))
    throw std::invalid_argument("induced_subgraph: mask size mismatch");

  std::vector<vid_t> rmap(static_cast<std::size_t>(g.num_rows()), kNil);
  std::vector<vid_t> cmap(static_cast<std::size_t>(g.num_cols()), kNil);
  vid_t new_rows = 0, new_cols = 0;
  for (vid_t i = 0; i < g.num_rows(); ++i)
    if (keep_row[static_cast<std::size_t>(i)]) rmap[static_cast<std::size_t>(i)] = new_rows++;
  for (vid_t j = 0; j < g.num_cols(); ++j)
    if (keep_col[static_cast<std::size_t>(j)]) cmap[static_cast<std::size_t>(j)] = new_cols++;

  GraphBuilder b(new_rows, new_cols);
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    if (rmap[static_cast<std::size_t>(i)] == kNil) continue;
    for (const vid_t j : g.row_neighbors(i))
      if (cmap[static_cast<std::size_t>(j)] != kNil)
        b.add_edge(rmap[static_cast<std::size_t>(i)], cmap[static_cast<std::size_t>(j)]);
  }
  if (row_map != nullptr) *row_map = std::move(rmap);
  if (col_map != nullptr) *col_map = std::move(cmap);
  return b.build();
}

} // namespace bmh
