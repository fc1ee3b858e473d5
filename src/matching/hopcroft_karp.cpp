#include "matching/hopcroft_karp.hpp"

#include <cassert>
#include <limits>
#include <vector>

#include "core/workspace.hpp"

namespace bmh {

namespace {

constexpr vid_t kInf = std::numeric_limits<vid_t>::max();

class HopcroftKarp {
public:
  HopcroftKarp(const BipartiteGraph& g, Workspace& ws)
      : g_(g),
        dist_(ws.vec<vid_t>("hk.dist", static_cast<std::size_t>(g.num_rows()))),
        cursor_(ws.vec<eid_t>("hk.cursor", static_cast<std::size_t>(g.num_rows()))),
        queue_(ws.buf<vid_t>("hk.queue")),
        row_stack_(ws.buf<vid_t>("hk.row_stack")),
        col_stack_(ws.buf<vid_t>("hk.col_stack")) {
    queue_.reserve(static_cast<std::size_t>(g.num_rows()));
  }

  void solve(Matching& m) {
    while (bfs(m)) {
      for (vid_t i = 0; i < g_.num_rows(); ++i)
        cursor_[static_cast<std::size_t>(i)] = g_.row_ptr()[i];
      for (vid_t i = 0; i < g_.num_rows(); ++i)
        if (!m.row_matched(i)) augment(i, m);
    }
  }

private:
  /// Layered BFS from all free rows; true iff a free column is reachable.
  bool bfs(const Matching& m) {
    queue_.clear();
    for (vid_t i = 0; i < g_.num_rows(); ++i) {
      if (!m.row_matched(i)) {
        dist_[static_cast<std::size_t>(i)] = 0;
        queue_.push_back(i);
      } else {
        dist_[static_cast<std::size_t>(i)] = kInf;
      }
    }
    bool reachable = false;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const vid_t u = queue_[head];
      for (const vid_t v : g_.row_neighbors(u)) {
        const vid_t w = m.col_match[static_cast<std::size_t>(v)];
        if (w == kNil) {
          reachable = true;
        } else if (dist_[static_cast<std::size_t>(w)] == kInf) {
          dist_[static_cast<std::size_t>(w)] = dist_[static_cast<std::size_t>(u)] + 1;
          queue_.push_back(w);
        }
      }
    }
    return reachable;
  }

  /// Iterative layered DFS with adjacency cursors (Dinic-style); augments
  /// along the found path. Explicit stacks keep huge sparse instances from
  /// overflowing the call stack.
  void augment(vid_t root, Matching& m) {
    row_stack_.assign(1, root);
    col_stack_.clear();
    while (!row_stack_.empty()) {
      const vid_t x = row_stack_.back();
      bool advanced = false;
      eid_t& cur = cursor_[static_cast<std::size_t>(x)];
      const eid_t end = g_.row_ptr()[x + 1];
      while (cur < end) {
        const vid_t v = g_.col_idx()[static_cast<std::size_t>(cur++)];
        const vid_t w = m.col_match[static_cast<std::size_t>(v)];
        if (w == kNil) {
          // Free column: flip the whole alternating path recorded on the
          // stacks (row_stack_[k] was reached through col_stack_[k-1]).
          m.rematch(x, v);
          for (std::size_t k = row_stack_.size() - 1; k-- > 0;)
            m.rematch(row_stack_[k], col_stack_[k]);
          return;
        }
        if (dist_[static_cast<std::size_t>(w)] ==
            dist_[static_cast<std::size_t>(x)] + 1) {
          col_stack_.push_back(v);
          row_stack_.push_back(w);
          advanced = true;
          break;
        }
      }
      if (!advanced) {
        dist_[static_cast<std::size_t>(x)] = kInf;  // dead end for this phase
        row_stack_.pop_back();
        if (!col_stack_.empty()) col_stack_.pop_back();
      }
    }
  }

  const BipartiteGraph& g_;
  std::vector<vid_t>& dist_;
  std::vector<eid_t>& cursor_;
  std::vector<vid_t>& queue_;
  std::vector<vid_t>& row_stack_;
  std::vector<vid_t>& col_stack_;
};

/// In-place completion of `m` (a valid matching of `g`, debug-asserted) to
/// a maximum matching.
void hopcroft_karp_augment_ws(const BipartiteGraph& g, Matching& m, Workspace& ws) {
  assert(is_valid_matching(g, m));
  greedy_init(g, m);
  HopcroftKarp solver(g, ws);
  solver.solve(m);
}

} // namespace

Matching hopcroft_karp(const BipartiteGraph& g, const Matching* initial) {
  Matching m = initial_matching(g, initial, "hopcroft_karp");
  hopcroft_karp_augment_ws(g, m, Workspace::for_this_thread());
  return m;
}

void hopcroft_karp_ws(const BipartiteGraph& g, Workspace& ws, Matching& out) {
  out.reset(g.num_rows(), g.num_cols());
  hopcroft_karp_augment_ws(g, out, ws);
}

} // namespace bmh
