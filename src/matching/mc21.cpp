#include "matching/mc21.hpp"

#include <cassert>
#include <vector>

#include "core/workspace.hpp"

namespace bmh {

namespace {

/// Iterative augmenting DFS from `root` with lookahead; `stamp` versions the
/// visited array so it is cleared once per solver, not per root. All scratch
/// is leased from the caller's Workspace.
class Mc21Solver {
public:
  Mc21Solver(const BipartiteGraph& g, Workspace& ws)
      : g_(g),
        visited_(ws.vec<std::uint32_t>("mc21.visited",
                                       static_cast<std::size_t>(g.num_cols()), 0u)),
        lookahead_(ws.vec<eid_t>("mc21.lookahead",
                                 static_cast<std::size_t>(g.num_rows()))),
        cursor_(ws.vec<eid_t>("mc21.cursor", static_cast<std::size_t>(g.num_rows()))),
        row_stack_(ws.buf<vid_t>("mc21.row_stack")),
        col_stack_(ws.buf<vid_t>("mc21.col_stack")) {
    for (vid_t i = 0; i < g.num_rows(); ++i)
      lookahead_[static_cast<std::size_t>(i)] = g.row_ptr()[i];
  }

  bool augment_from(vid_t root, Matching& m) {
    ++stamp_;
    row_stack_.assign(1, root);
    col_stack_.clear();
    cursor_[static_cast<std::size_t>(root)] = g_.row_ptr()[root];

    while (!row_stack_.empty()) {
      const vid_t x = row_stack_.back();

      // Lookahead: scan once, over the whole lifetime of the solver, for a
      // directly-free column of x (the MC21 "cheap assignment" trick).
      vid_t free_col = kNil;
      eid_t& la = lookahead_[static_cast<std::size_t>(x)];
      while (la < g_.row_ptr()[x + 1]) {
        const vid_t v = g_.col_idx()[static_cast<std::size_t>(la++)];
        if (!m.col_matched(v)) {
          free_col = v;
          break;
        }
      }
      if (free_col != kNil) {
        flip_path(free_col, m);
        return true;
      }

      // Deep step: advance x's cursor to an unvisited matched column.
      bool advanced = false;
      eid_t& cur = cursor_[static_cast<std::size_t>(x)];
      while (cur < g_.row_ptr()[x + 1]) {
        const vid_t v = g_.col_idx()[static_cast<std::size_t>(cur++)];
        if (visited_[static_cast<std::size_t>(v)] == stamp_) continue;
        visited_[static_cast<std::size_t>(v)] = stamp_;
        const vid_t w = m.col_match[static_cast<std::size_t>(v)];
        if (w == kNil) {
          flip_path(v, m);
          return true;
        }
        col_stack_.push_back(v);
        row_stack_.push_back(w);
        cursor_[static_cast<std::size_t>(w)] = g_.row_ptr()[w];
        advanced = true;
        break;
      }
      if (!advanced) {
        row_stack_.pop_back();
        if (!col_stack_.empty()) col_stack_.pop_back();
      }
    }
    return false;
  }

private:
  /// Assigns the free column to the top row and flips the recorded
  /// alternating path back to the root.
  void flip_path(vid_t free_col, Matching& m) {
    m.rematch(row_stack_.back(), free_col);
    for (std::size_t k = row_stack_.size() - 1; k-- > 0;)
      m.rematch(row_stack_[k], col_stack_[k]);
  }

  const BipartiteGraph& g_;
  std::vector<std::uint32_t>& visited_;
  std::vector<eid_t>& lookahead_;
  std::vector<eid_t>& cursor_;
  std::vector<vid_t>& row_stack_;
  std::vector<vid_t>& col_stack_;
  std::uint32_t stamp_ = 0;
};

} // namespace

void mc21_augment_ws(const BipartiteGraph& g, Matching& m, Workspace& ws) {
  assert(is_valid_matching(g, m));
  Mc21Solver solver(g, ws);
  for (vid_t i = 0; i < g.num_rows(); ++i)
    if (!m.row_matched(i)) solver.augment_from(i, m);
}

void mc21_ws(const BipartiteGraph& g, Workspace& ws, Matching& out) {
  out.reset(g.num_rows(), g.num_cols());
  mc21_augment_ws(g, out, ws);
}

} // namespace bmh
