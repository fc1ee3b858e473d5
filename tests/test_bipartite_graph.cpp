/// Unit tests for the CSR/CSC bipartite graph structure: construction
/// validation, dual-view consistency, transpose, and lookup helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

TEST(BipartiteGraph, EmptyGraphIsValid) {
  const BipartiteGraph g(0, 0, {0}, {});
  EXPECT_EQ(g.num_rows(), 0);
  EXPECT_EQ(g.num_cols(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(BipartiteGraph, RejectsMalformedCsr) {
  struct Case {
    const char* what;
    vid_t rows, cols;
    std::vector<eid_t> row_ptr;
    std::vector<vid_t> col_idx;
  };
  const Case cases[] = {
      {"row_ptr size", 2, 2, {0, 1}, {0}},
      {"non-monotone row_ptr", 2, 2, {0, 2, 1}, {0, 1}},
      {"column out of range", 2, 2, {0, 1, 2}, {0, 5}},
      {"bounds mismatch", 1, 1, {0, 2}, {0}},
      {"duplicate edge", 2, 2, {0, 3, 4}, {0, 0, 1, 1}},
      {"unsorted row", 2, 2, {0, 2, 2}, {1, 0}},
  };
  for (const Case& c : cases) {
    EXPECT_THROW(BipartiteGraph(c.rows, c.cols, c.row_ptr, c.col_idx), std::invalid_argument)
        << c.what;
    // The pooled path validates before touching anything: a rejected
    // rebuild leaves the graph, and its remembered sprank, as they were.
    BipartiteGraph pooled = make_cycle(4);
    pooled.remember_sprank(4);
    EXPECT_THROW(pooled.assign_csr(c.rows, c.cols, c.row_ptr, c.col_idx),
                 std::invalid_argument)
        << c.what;
    EXPECT_TRUE(pooled.structurally_equal(make_cycle(4))) << c.what;
    EXPECT_EQ(pooled.known_sprank(), std::optional<vid_t>(4)) << c.what;
  }
}

TEST(BipartiteGraph, CscMirrorsCsr) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{0, 1}, {1, 2}, {0}});
  // Column 0 is touched by rows 0 and 2; column 1 by rows 0 and 1; etc.
  std::vector<vid_t> c0(g.col_neighbors(0).begin(), g.col_neighbors(0).end());
  std::vector<vid_t> c1(g.col_neighbors(1).begin(), g.col_neighbors(1).end());
  std::vector<vid_t> c2(g.col_neighbors(2).begin(), g.col_neighbors(2).end());
  EXPECT_EQ(c0, (std::vector<vid_t>{0, 2}));
  EXPECT_EQ(c1, (std::vector<vid_t>{0, 1}));
  EXPECT_EQ(c2, (std::vector<vid_t>{1}));
}

TEST(BipartiteGraph, DegreesAgreeAcrossViews) {
  const BipartiteGraph g = make_erdos_renyi(200, 150, 1000, 7);
  eid_t row_total = 0, col_total = 0;
  for (vid_t i = 0; i < g.num_rows(); ++i) row_total += g.row_degree(i);
  for (vid_t j = 0; j < g.num_cols(); ++j) col_total += g.col_degree(j);
  EXPECT_EQ(row_total, g.num_edges());
  EXPECT_EQ(col_total, g.num_edges());
}

TEST(BipartiteGraph, EveryCsrEdgeAppearsInCsc) {
  const BipartiteGraph g = make_erdos_renyi(64, 80, 400, 3);
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    for (const vid_t j : g.row_neighbors(i)) {
      const auto nbrs = g.col_neighbors(j);
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), i), nbrs.end())
          << "edge (" << i << "," << j << ") missing from CSC";
    }
  }
}

TEST(BipartiteGraph, HasEdgeMatchesStructure) {
  const BipartiteGraph g = graph_from_rows(2, 3, {{0, 2}, {1}});
  EXPECT_TRUE(g.has_edge(0, 0));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(1, 1));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(-1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(BipartiteGraph, TransposeSwapsDimensionsAndEdges) {
  const BipartiteGraph g = make_erdos_renyi(50, 70, 300, 11);
  const BipartiteGraph t = g.transposed();
  EXPECT_EQ(t.num_rows(), g.num_cols());
  EXPECT_EQ(t.num_cols(), g.num_rows());
  EXPECT_EQ(t.num_edges(), g.num_edges());
  for (vid_t i = 0; i < g.num_rows(); ++i)
    for (const vid_t j : g.row_neighbors(i)) EXPECT_TRUE(t.has_edge(j, i));
}

TEST(BipartiteGraph, DoubleTransposeIsIdentity) {
  const BipartiteGraph g = make_erdos_renyi(40, 40, 200, 13);
  EXPECT_TRUE(g.structurally_equal(g.transposed().transposed()));
}

TEST(BipartiteGraph, StructuralEqualityDetectsDifference) {
  const BipartiteGraph a = graph_from_rows(2, 2, {{0}, {1}});
  const BipartiteGraph b = graph_from_rows(2, 2, {{1}, {0}});
  EXPECT_TRUE(a.structurally_equal(a));
  EXPECT_FALSE(a.structurally_equal(b));
}

TEST(BipartiteGraph, SquareDetection) {
  EXPECT_TRUE(graph_from_rows(2, 2, {{0}, {1}}).square());
  EXPECT_FALSE(graph_from_rows(2, 3, {{0}, {1}}).square());
}

TEST(BipartiteGraph, CscRowIndicesAreSortedPerColumn) {
  const BipartiteGraph g = make_erdos_renyi(300, 300, 3000, 17);
  for (vid_t j = 0; j < g.num_cols(); ++j) {
    const auto nbrs = g.col_neighbors(j);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end())) << "column " << j;
  }
}

} // namespace
} // namespace bmh
