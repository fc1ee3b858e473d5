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

BipartiteGraph GraphBuilder::build() {
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

  // Counting sort by row, columns kept in input order within each row. The
  // histogram scratch serves the graph's CSC build next, already paged in.
  std::vector<eid_t> row_ptr(static_cast<std::size_t>(num_rows_) + 1);
  std::vector<vid_t> col_idx(count);
  DefaultInitVector<eid_t> hist;
  count_scatter(
      count, static_cast<std::size_t>(num_rows_),
      [edges](std::size_t e) { return edges[e].row; },
      [edges](std::size_t begin, std::size_t end, auto&& sink) {
        for (std::size_t e = begin; e < end; ++e) sink(edges[e].row, edges[e].col);
      },
      std::span<eid_t>(row_ptr), std::span<vid_t>(col_idx), hist);

  // Per-row sort + dedup. A row's repeats are overwritten with kNil; when
  // any row had one, a serial pass squeezes them out in place, which moves
  // less memory than compacting into a second array.
  vid_t* const idx = col_idx.data();
  const eid_t* const ptr = row_ptr.data();
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
  if (dropped != 0) {
    eid_t write = 0;
    for (vid_t i = 0; i < num_rows_; ++i) {
      const eid_t begin = row_ptr[static_cast<std::size_t>(i)];
      const eid_t end = row_ptr[static_cast<std::size_t>(i) + 1];
      row_ptr[static_cast<std::size_t>(i)] = write;
      for (eid_t e = begin; e < end; ++e) {  // branch-free: repeats follow no pattern
        idx[write] = idx[e];
        write += idx[e] != kNil;
      }
    }
    row_ptr.back() = write;
    col_idx.resize(static_cast<std::size_t>(write));
  }
  // The callers are temporaries (generators, readers) building graphs that
  // dwarf the scratch, so hand the edge memory back before the graph builds
  // its CSC.
  edges_.clear();
  edges_.shrink_to_fit();
  return BipartiteGraph(num_rows_, num_cols_, std::move(row_ptr), std::move(col_idx),
                        std::move(hist));
}

} // namespace bmh
