#include "graph/builder.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

#include "graph/count_scatter.hpp"

namespace bmh {

GraphBuilder::GraphBuilder(vid_t num_rows, vid_t num_cols)
    : num_rows_(num_rows), num_cols_(num_cols) {
  if (num_rows < 0 || num_cols < 0)
    throw std::invalid_argument("GraphBuilder: negative dimension");
}

void GraphBuilder::reset(vid_t num_rows, vid_t num_cols) {
  if (num_rows < 0 || num_cols < 0)
    throw std::invalid_argument("GraphBuilder: negative dimension");
  num_rows_ = num_rows;
  num_cols_ = num_cols;
  edges_.clear();
}

void GraphBuilder::assemble() {
  const Edge* const edges = edges_.data();
  const std::size_t count = edges_.size();
  // Unsigned compares: a negative id wraps past any dimension.
  const auto rows = static_cast<std::uint32_t>(num_rows_);
  const auto cols = static_cast<std::uint32_t>(num_cols_);
  const eid_t out_of_range =
      parallel_sum<eid_t>(count, [edges, rows, cols](std::size_t begin, std::size_t end) {
        eid_t bad = 0;
        for (std::size_t e = begin; e < end; ++e)
          bad += (static_cast<std::uint32_t>(edges[e].row) >= rows) |
                 (static_cast<std::uint32_t>(edges[e].col) >= cols);
        return bad;
      });
  if (out_of_range != 0) throw std::out_of_range("GraphBuilder: edge id out of range");

  // Counting sort by row, columns kept in input order within each row.
  row_ptr_.resize(static_cast<std::size_t>(num_rows_) + 1);
  col_idx_.resize(count);
  count_scatter(
      count, static_cast<std::size_t>(num_rows_),
      [edges](std::size_t e) { return edges[e].row; },
      [edges](std::size_t begin, std::size_t end, auto&& sink) {
        for (std::size_t e = begin; e < end; ++e) sink(edges[e].row, edges[e].col);
      },
      std::span<eid_t>(row_ptr_), std::span<vid_t>(col_idx_), hist_scratch_);

  // Per-row sort + dedup. A row's repeats are overwritten with kNil; when
  // any row had one, a serial pass squeezes them out in place, which moves
  // less memory than compacting into a second array.
  vid_t* const idx = col_idx_.data();
  const eid_t* const ptr = row_ptr_.data();
  eid_t dropped = 0;
#pragma omp parallel for schedule(dynamic, 512) reduction(+ : dropped)
  for (vid_t i = 0; i < num_rows_; ++i) {
    vid_t* const begin = idx + ptr[i];
    vid_t* const end = idx + ptr[i + 1];
    std::sort(begin, end);
    vid_t* const kept = std::unique(begin, end);
    std::fill(kept, end, kNil);
    dropped += end - kept;
  }
  if (dropped == 0) return;
  eid_t write = 0;
  for (vid_t i = 0; i < num_rows_; ++i) {
    const eid_t begin = row_ptr_[static_cast<std::size_t>(i)];
    const eid_t end = row_ptr_[static_cast<std::size_t>(i) + 1];
    row_ptr_[static_cast<std::size_t>(i)] = write;
    for (eid_t e = begin; e < end; ++e) {  // branch-free: repeats follow no pattern
      idx[write] = idx[e];
      write += idx[e] != kNil;
    }
  }
  row_ptr_.back() = write;
  col_idx_.resize(static_cast<std::size_t>(write));
}

BipartiteGraph GraphBuilder::build() {
  assemble();
  // One-shot mode: callers are temporaries (generators, readers) building
  // graphs that dwarf the scratch, so hand the memory back immediately. The
  // assembled arrays become the graph's; the histogram scratch serves its
  // CSC first.
  edges_.clear();
  edges_.shrink_to_fit();
  return BipartiteGraph(num_rows_, num_cols_, std::exchange(row_ptr_, {}),
                        std::exchange(col_idx_, {}), std::exchange(hist_scratch_, {}));
}

void GraphBuilder::build_into(BipartiteGraph& out) {
  assemble();
  edges_.clear();  // reusable immediately; capacity kept for the next round
  out.assign_csr(num_rows_, num_cols_, row_ptr_, col_idx_, hist_scratch_);
}

BipartiteGraph graph_from_edges(vid_t num_rows, vid_t num_cols,
                                const std::vector<Edge>& edges) {
  GraphBuilder b(num_rows, num_cols);
  b.reserve(edges.size());
  for (const Edge& e : edges) b.add_edge(e.row, e.col);
  return b.build();
}

BipartiteGraph graph_from_rows(vid_t num_rows, vid_t num_cols,
                               const std::vector<std::vector<vid_t>>& rows) {
  if (rows.size() != static_cast<std::size_t>(num_rows))
    throw std::invalid_argument("graph_from_rows: row count mismatch");
  GraphBuilder b(num_rows, num_cols);
  for (vid_t i = 0; i < num_rows; ++i)
    for (const vid_t j : rows[static_cast<std::size_t>(i)]) b.add_edge(i, j);
  return b.build();
}

} // namespace bmh
