#include "analysis/koenig.hpp"

#include <utility>
#include <vector>

namespace bmh {

vid_t VertexCover::size() const noexcept {
  vid_t count = 0;
  for (const bool b : row_in_cover) count += b ? 1 : 0;
  for (const bool b : col_in_cover) count += b ? 1 : 0;
  return count;
}

AlternatingReach alternating_reach(const BipartiteGraph& g, const Matching& m,
                                   FreeSide from) {
  // Written from the start side's point of view: `near` is the side the
  // sweep starts from, `far` the other one.
  const bool from_rows = from == FreeSide::Rows;
  AlternatingReach reach;
  reach.rows.assign(static_cast<std::size_t>(g.num_rows()), false);
  reach.cols.assign(static_cast<std::size_t>(g.num_cols()), false);
  std::vector<bool>& near_reached = from_rows ? reach.rows : reach.cols;
  std::vector<bool>& far_reached = from_rows ? reach.cols : reach.rows;
  const std::vector<vid_t>& near_match = from_rows ? m.row_match : m.col_match;
  const std::vector<vid_t>& far_match = from_rows ? m.col_match : m.row_match;

  std::vector<vid_t> queue;
  for (std::size_t v = 0; v < near_reached.size(); ++v) {
    if (near_match[v] == kNil) {
      near_reached[v] = true;
      queue.push_back(static_cast<vid_t>(v));
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const vid_t v = queue[head];
    for (const vid_t w : from_rows ? g.row_neighbors(v) : g.col_neighbors(v)) {
      if (far_reached[static_cast<std::size_t>(w)]) continue;
      far_reached[static_cast<std::size_t>(w)] = true;
      const vid_t mate = far_match[static_cast<std::size_t>(w)];
      if (mate != kNil && !near_reached[static_cast<std::size_t>(mate)]) {
        near_reached[static_cast<std::size_t>(mate)] = true;
        queue.push_back(mate);
      }
    }
  }
  return reach;
}

VertexCover koenig_cover(const BipartiteGraph& g, const Matching& m) {
  AlternatingReach z = alternating_reach(g, m, FreeSide::Rows);
  VertexCover cover{std::move(z.rows), std::move(z.cols)};
  cover.row_in_cover.flip();  // rows \ Z; the columns are columns ∩ Z
  return cover;
}

bool is_vertex_cover(const BipartiteGraph& g, const VertexCover& c) {
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    if (c.row_in_cover[static_cast<std::size_t>(i)]) continue;
    for (const vid_t j : g.row_neighbors(i))
      if (!c.col_in_cover[static_cast<std::size_t>(j)]) return false;
  }
  return true;
}

bool is_maximum_matching(const BipartiteGraph& g, const Matching& m) {
  if (!is_valid_matching(g, m)) return false;
  const VertexCover cover = koenig_cover(g, m);
  // For a maximum matching the construction provably covers and has size
  // |M| (weak duality gives |C| >= |M| for every cover/matching pair, so
  // equality certifies both optimal). For a non-maximum matching an
  // augmenting path exists; its free column endpoint is reached, making
  // some matched column counted while its free row endpoint escapes the
  // row side — the sizes then differ or the cover fails.
  return is_vertex_cover(g, cover) && cover.size() == m.cardinality();
}

} // namespace bmh
