#include "analysis/dulmage_mendelsohn.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "analysis/koenig.hpp"

namespace bmh {

namespace {

/// Iterative Tarjan SCC over S's column digraph: j -> j' when the row
/// matched to j has an edge to j' (arcs leaving S are ignored; they reach V
/// and never return). Writes dense component ids into dm.col_block and their
/// count into dm.num_blocks. Tarjan numbers a component only after every
/// component it reaches, which is what gives the blocks' triangular order.
void square_block_sccs(const BipartiteGraph& g, const Matching& m, DmDecomposition& dm) {
  const vid_t n = g.num_cols();
  const auto in_s = [&](vid_t j) {
    return dm.col_part[static_cast<std::size_t>(j)] == DmPart::Square;
  };
  std::vector<vid_t>& comp = dm.col_block;
  comp.assign(static_cast<std::size_t>(n), kNil);
  std::vector<vid_t> low(static_cast<std::size_t>(n), 0), num(static_cast<std::size_t>(n), kNil);
  std::vector<bool> on_stack(static_cast<std::size_t>(n), false);
  std::vector<vid_t> scc_stack;
  vid_t next_num = 0;

  struct Frame {
    vid_t j;
    eid_t edge;  // cursor into the matched row's adjacency
  };
  std::vector<Frame> call;

  for (vid_t root = 0; root < n; ++root) {
    if (num[static_cast<std::size_t>(root)] != kNil || !in_s(root)) continue;
    call.push_back({root, 0});
    while (!call.empty()) {
      Frame& f = call.back();
      const vid_t i = m.col_match[static_cast<std::size_t>(f.j)];
      if (f.edge == 0) {
        num[static_cast<std::size_t>(f.j)] = low[static_cast<std::size_t>(f.j)] = next_num++;
        scc_stack.push_back(f.j);
        on_stack[static_cast<std::size_t>(f.j)] = true;
      }
      bool descended = false;
      const auto nbrs = g.row_neighbors(i);
      while (f.edge < static_cast<eid_t>(nbrs.size())) {
        const vid_t j2 = nbrs[static_cast<std::size_t>(f.edge++)];
        if (!in_s(j2)) continue;
        if (num[static_cast<std::size_t>(j2)] == kNil) {
          call.push_back({j2, 0});
          descended = true;
          break;
        }
        if (on_stack[static_cast<std::size_t>(j2)])
          low[static_cast<std::size_t>(f.j)] =
              std::min(low[static_cast<std::size_t>(f.j)], num[static_cast<std::size_t>(j2)]);
      }
      if (descended) continue;
      // f.j is finished.
      if (low[static_cast<std::size_t>(f.j)] == num[static_cast<std::size_t>(f.j)]) {
        vid_t w;
        do {
          w = scc_stack.back();
          scc_stack.pop_back();
          on_stack[static_cast<std::size_t>(w)] = false;
          comp[static_cast<std::size_t>(w)] = dm.num_blocks;
        } while (w != f.j);
        ++dm.num_blocks;
      }
      const vid_t finished = f.j;
      call.pop_back();
      if (!call.empty()) {
        Frame& parent = call.back();
        low[static_cast<std::size_t>(parent.j)] =
            std::min(low[static_cast<std::size_t>(parent.j)],
                     low[static_cast<std::size_t>(finished)]);
      }
    }
  }
}

DmPart part_of(bool in_h, bool in_v) {
  return in_h ? DmPart::Horizontal : in_v ? DmPart::Vertical : DmPart::Square;
}

} // namespace

DmDecomposition dulmage_mendelsohn(const BipartiteGraph& g, const Matching& maximum) {
  assert(is_maximum_matching(g, maximum));
  DmDecomposition dm;
  dm.sprank = maximum.cardinality();

  const AlternatingReach h = alternating_reach(g, maximum, FreeSide::Columns);
  const AlternatingReach v = alternating_reach(g, maximum, FreeSide::Rows);
  dm.row_part.resize(static_cast<std::size_t>(g.num_rows()));
  dm.col_part.resize(static_cast<std::size_t>(g.num_cols()));
  for (std::size_t i = 0; i < dm.row_part.size(); ++i) {
    dm.row_part[i] = part_of(h.rows[i], v.rows[i]);
    dm.h_rows += dm.row_part[i] == DmPart::Horizontal ? 1 : 0;
    dm.v_rows += dm.row_part[i] == DmPart::Vertical ? 1 : 0;
  }
  for (std::size_t j = 0; j < dm.col_part.size(); ++j) {
    dm.col_part[j] = part_of(h.cols[j], v.cols[j]);
    dm.h_cols += dm.col_part[j] == DmPart::Horizontal ? 1 : 0;
    dm.v_cols += dm.col_part[j] == DmPart::Vertical ? 1 : 0;
  }
  dm.s_size = g.num_rows() - dm.h_rows - dm.v_rows;

  square_block_sccs(g, maximum, dm);
  dm.row_block.assign(static_cast<std::size_t>(g.num_rows()), kNil);
  for (vid_t j = 0; j < g.num_cols(); ++j)
    if (dm.col_block[static_cast<std::size_t>(j)] != kNil)
      dm.row_block[static_cast<std::size_t>(maximum.col_match[static_cast<std::size_t>(j)])] =
          dm.col_block[static_cast<std::size_t>(j)];

  // A perfect matching leaves no free vertex, so S is the whole matrix.
  // Edge (i, j) then lies in some perfect matching iff j is in the block of
  // i's matched column.
  const bool perfect = g.square() && dm.sprank == g.num_rows();
  dm.total_support = g.num_rows() == 0 || perfect;
  for (vid_t i = 0; perfect && dm.total_support && i < g.num_rows(); ++i)
    for (const vid_t j : g.row_neighbors(i))
      if (dm.col_block[static_cast<std::size_t>(j)] != dm.row_block[static_cast<std::size_t>(i)])
        dm.total_support = false;
  dm.fully_indecomposable = perfect && dm.num_blocks == 1;
  return dm;
}

} // namespace bmh
