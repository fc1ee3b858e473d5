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
  Edge* const edges = edges_.data();
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

  // Order the edge buffer by row in place, each row's edges in input order
  // (a stable counting sort, graph/count_scatter.hpp): edges[row_start[i] ..
  // row_start[i + 1]) are row i's. Its staging is freed before anything
  // else is allocated. Sort and dedup each row there, its kept count into
  // row_ptr[i + 1]; a prefix turns the counts into offsets, and the kept
  // columns are copied out once, into a col_idx of exactly their number.
  const auto row_count = static_cast<std::size_t>(num_rows_);
  DefaultInitVector<eid_t> row_ptr(row_count + 1);
  DefaultInitVector<vid_t> col_idx;
  {
    DefaultInitVector<eid_t> row_start(row_count + 1);
    {
      DefaultInitVector<eid_t> counts;
      DefaultInitVector<Edge> staging;
      count_scatter(
          count, row_count, [edges](std::size_t e) { return edges[e].row; },
          [edges](std::size_t begin, std::size_t end, auto&& sink) {
            for (std::size_t e = begin; e < end; ++e) sink(edges[e].row, edges[e].col);
          },
          std::span<eid_t>(row_start),
          [edges](std::size_t at, vid_t row, vid_t col) { edges[at] = Edge{row, col}; }, counts,
          staging);
    }
    const bool team = count >= kParallelMinItems;
    const eid_t* const start = row_start.data();
    eid_t* const ptr = row_ptr.data();
    ptr[0] = 0;
    // A row's edges share their row, so ordering by column orders them.
    const auto by_col = [](const Edge& a, const Edge& b) { return a.col < b.col; };
#pragma omp parallel for schedule(dynamic, 512) if (team)
    for (std::size_t i = 0; i < row_count; ++i) {
      Edge* const begin = edges + start[i];
      Edge* const end = edges + start[i + 1];
      std::sort(begin, end, by_col);
      ptr[i + 1] = std::unique(begin, end) - begin;
    }
    for (std::size_t i = 0; i < row_count; ++i) ptr[i + 1] += ptr[i];
    col_idx.resize(static_cast<std::size_t>(ptr[row_count]));
    vid_t* const idx = col_idx.data();
#pragma omp parallel for schedule(dynamic, 512) if (team)
    for (std::size_t i = 0; i < row_count; ++i) {
      const Edge* const kept = edges + start[i];
      for (eid_t e = 0; e < ptr[i + 1] - ptr[i]; ++e) idx[ptr[i] + e] = kept[e].col;
    }
  }
  // The spent edge buffer, at least nnz long and already paged in, is the
  // CSC build's staging; the graph releases it once its CSC is built.
  return BipartiteGraph(num_rows_, num_cols_, std::move(row_ptr), std::move(col_idx),
                        std::exchange(edges_, {}));
}

} // namespace bmh
