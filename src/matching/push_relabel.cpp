#include "matching/push_relabel.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "core/workspace.hpp"

namespace bmh {

namespace {

/// FIFO over a workspace vector: pops advance a head index, and the dead
/// prefix is compacted away once it exceeds the live bound, so the backing
/// storage stays O(num_rows) instead of growing with the push count.
class Fifo {
public:
  Fifo(std::vector<vid_t>& storage, std::size_t live_bound)
      : q_(storage), live_bound_(live_bound) {}

  [[nodiscard]] bool empty() const noexcept { return head_ == q_.size(); }
  void push(vid_t v) { q_.push_back(v); }
  vid_t pop() {
    const vid_t v = q_[head_++];
    if (head_ > live_bound_) {
      q_.erase(q_.begin(), q_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return v;
  }

private:
  std::vector<vid_t>& q_;
  std::size_t live_bound_;
  std::size_t head_ = 0;
};

} // namespace

void push_relabel_ws(const BipartiteGraph& g, Workspace& ws, Matching& out) {
  out.reset(g.num_rows(), g.num_cols());
  push_relabel_augment_ws(g, out, ws);
}

void push_relabel_augment_ws(const BipartiteGraph& g, Matching& m, Workspace& ws) {
  assert(is_valid_matching(g, m));
  greedy_init(g, m);

  const vid_t n_rows = g.num_rows();
  const vid_t n_cols = g.num_cols();
  // Labels: psi_row for rows, psi_col for columns, lower bounds on the
  // alternating distance to a free column (a free column is 0, a row is
  // its column's label + 1, a matched column its mate row's label + 1). A
  // row pushes to a column with psi_col = psi_row - 1. A finite distance
  // is below n_rows + n_cols, so a row whose label reaches the cap has no
  // augmenting path and retires.
  std::vector<vid_t>& psi_row =
      ws.vec<vid_t>("pr.psi_row", static_cast<std::size_t>(n_rows));
  std::vector<vid_t>& psi_col =
      ws.vec<vid_t>("pr.psi_col", static_cast<std::size_t>(n_cols));
  std::vector<vid_t>& bfs = ws.buf<vid_t>("pr.bfs");
  const vid_t label_cap = n_rows + n_cols + 1;

  // Global relabel: BFS from the free columns over the CSC side sets every
  // label to its exact distance; rows it does not reach get the cap. The
  // queue names its columns well before their scan, so each one's col_ptr
  // entry is prefetched kPtrAhead entries ahead and, once that is likely
  // cached, its first row-index line kAdjacencyAhead ahead.
  constexpr std::size_t kPtrAhead = 16;
  constexpr std::size_t kAdjacencyAhead = 8;
  const std::span<const eid_t> col_ptr = g.col_ptr();
  const std::span<const vid_t> row_idx = g.row_idx();
  const auto global_relabel = [&] {
    std::fill(psi_row.begin(), psi_row.end(), label_cap);
    std::fill(psi_col.begin(), psi_col.end(), label_cap);
    bfs.clear();
    for (vid_t j = 0; j < n_cols; ++j) {
      if (m.col_matched(j)) continue;
      psi_col[static_cast<std::size_t>(j)] = 0;
      bfs.push_back(j);
    }
    for (std::size_t head = 0; head < bfs.size(); ++head) {
      if (head + kPtrAhead < bfs.size())
        __builtin_prefetch(&col_ptr[static_cast<std::size_t>(bfs[head + kPtrAhead])]);
      if (head + kAdjacencyAhead < bfs.size())
        __builtin_prefetch(
            row_idx.data() + col_ptr[static_cast<std::size_t>(bfs[head + kAdjacencyAhead])]);
      const vid_t j = bfs[head];
      const vid_t row_label = psi_col[static_cast<std::size_t>(j)] + 1;
      for (const vid_t i : g.col_neighbors(j)) {
        if (psi_row[static_cast<std::size_t>(i)] != label_cap) continue;
        psi_row[static_cast<std::size_t>(i)] = row_label;
        const vid_t mate = m.row_match[static_cast<std::size_t>(i)];
        if (mate != kNil && psi_col[static_cast<std::size_t>(mate)] == label_cap) {
          psi_col[static_cast<std::size_t>(mate)] = row_label + 1;
          bfs.push_back(mate);
        }
      }
    }
  };
  global_relabel();
  const std::size_t relabel_period = static_cast<std::size_t>(n_rows) + n_cols;
  std::size_t relabels = 0;

  // FIFO of rows with excess (free rows). At any moment a row appears at
  // most once (it is either matched or queued), so the live size is bounded
  // by n_rows.
  Fifo active(ws.buf<vid_t>("pr.active"), static_cast<std::size_t>(n_rows));
  for (vid_t i = 0; i < n_rows; ++i)
    if (!m.row_matched(i) && psi_row[static_cast<std::size_t>(i)] < label_cap)
      active.push(i);

  while (!active.empty()) {
    if (relabels >= relabel_period) {
      global_relabel();
      relabels = 0;
    }
    const vid_t i = active.pop();
    assert(!m.row_matched(i));  // queued rows are free; each is queued once
    vid_t& psi_i = psi_row[static_cast<std::size_t>(i)];
    if (psi_i >= label_cap) continue;  // retired by a global relabel

    // Find the admissible (minimum label) column among i's neighbours: the
    // first one with the least label. Labels are lower bounds, so no
    // neighbour is below psi_i - 1 and the first at psi_i - 1 is that
    // column; scanning on past it picks the same one, and a scan without
    // data-dependent branches beats an early exit the predictor misses.
    vid_t best_col = kNil;
    vid_t best_label = label_cap;
    for (const vid_t j : g.row_neighbors(i)) {
      const vid_t l = psi_col[static_cast<std::size_t>(j)];
      const bool better = l < best_label;
      best_col = better ? j : best_col;
      best_label = better ? l : best_label;
    }
    // Relabel the row just above the best column (retire it at the cap),
    // then push: a double push if the column was matched, whose old row
    // re-enters the FIFO.
    if (best_label + 1 != psi_i) ++relabels;
    psi_i = best_label + 1;
    if (psi_i >= label_cap) continue;  // unmatchable (or isolated)

    const vid_t old_row = m.col_match[static_cast<std::size_t>(best_col)];
    if (old_row != kNil) m.row_match[static_cast<std::size_t>(old_row)] = kNil;
    m.row_match[static_cast<std::size_t>(i)] = best_col;
    m.col_match[static_cast<std::size_t>(best_col)] = i;
    // The column now sits one step above its new mate, as the BFS would
    // label it, so the kicked row must look elsewhere first.
    psi_col[static_cast<std::size_t>(best_col)] = psi_i + 1;

    if (old_row != kNil) active.push(old_row);
  }
}

vid_t sprank_ws(const BipartiteGraph& g, Workspace& ws) {
  Matching& scratch = ws.obj<Matching>("pr.sprank_matching");
  push_relabel_ws(g, ws, scratch);
  return scratch.cardinality();
}

} // namespace bmh
