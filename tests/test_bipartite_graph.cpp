/// Unit tests for the CSR/CSC bipartite graph structure: construction
/// validation, dual-view consistency, transpose, and lookup helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

using namespace testing;

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
    DefaultInitVector<eid_t> row_ptr;
    DefaultInitVector<vid_t> col_idx;
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
  }
}

TEST(BipartiteGraph, RebuildMatchesAFreshBuildAcrossReuse) {
  // One graph object rebuilt from graphs of different shapes, the way a
  // Workspace-kept graph is: every round must equal the constructed graph,
  // CSC included, whether its vectors grow or shrink.
  const BipartiteGraph sources[] = {
      make_erdos_renyi(300, 200, 2400, 3), make_cycle(7), make_erdos_renyi(50, 900, 800, 5),
      graph_from_rows(3, 4, {{}, {}, {}}), BipartiteGraph(), make_erdos_renyi(300, 200, 600, 4)};
  BipartiteGraph pooled;
  int round = 0;
  for (const BipartiteGraph& g : sources) {
    testing::rebuild_from(pooled, g);
    testing::expect_same_arrays(pooled, g, "round " + std::to_string(round++));
  }
}

TEST(BipartiteGraph, RebuildDropsTheMemosOfTheOldArrays) {
  // A rebuilt graph must not serve the previous instance's rank.
  BipartiteGraph pooled = make_cycle(4);
  pooled.remember_sprank(4);
  testing::rebuild_from(pooled, graph_from_rows(4, 4, {{0}, {0}, {0}, {0}}));
  EXPECT_FALSE(pooled.known_sprank().has_value());
  EXPECT_EQ(pooled.num_edges(), 4);
}

TEST(BipartiteGraph, RebuildThatThrowsLeavesTheEmptyGraph) {
  // A malformed orientation fails the constructor's checks, and a fill
  // that throws propagates; either way the graph is the valid 0x0 graph,
  // without the old rank, and takes the next rebuild like any other.
  BipartiteGraph pooled = make_cycle(4);
  pooled.remember_sprank(4);
  const auto unsorted_row = [](auto& row_ptr, auto& col_idx, auto& col_ptr, auto& row_idx) {
    row_ptr.assign({0, 2, 2});
    col_idx.assign({1, 0});
    col_ptr.assign({0, 1, 2});
    row_idx.assign({0, 0});
  };
  EXPECT_THROW(pooled.rebuild(2, 2, unsorted_row), std::invalid_argument);
  testing::expect_same_arrays(pooled, BipartiteGraph(), "after the malformed CSR");
  EXPECT_FALSE(pooled.known_sprank().has_value());
  const BipartiteGraph copy = pooled;
  testing::expect_same_arrays(copy, BipartiteGraph(), "a copy of it");
  testing::rebuild_from(pooled, make_cycle(4));
  const auto failing = [](auto&, auto&, auto&, auto&) { throw std::runtime_error("fill failed"); };
  EXPECT_THROW(pooled.rebuild(4, 4, failing), std::runtime_error);
  testing::expect_same_arrays(pooled, BipartiteGraph(), "after the failed fill");
  const BipartiteGraph source = make_full(8);
  testing::rebuild_from(pooled, source);
  testing::expect_same_arrays(pooled, source, "rebuilt again");
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
  EXPECT_TRUE(has_edge(g, 0, 0));
  EXPECT_TRUE(has_edge(g, 0, 2));
  EXPECT_TRUE(has_edge(g, 1, 1));
  EXPECT_FALSE(has_edge(g, 0, 1));
  EXPECT_FALSE(has_edge(g, 1, 0));
  EXPECT_FALSE(has_edge(g, -1, 0));
  EXPECT_FALSE(has_edge(g, 0, 3));
}

TEST(BipartiteGraph, TransposeSwapsDimensionsAndEdges) {
  const BipartiteGraph g = make_erdos_renyi(50, 70, 300, 11);
  const BipartiteGraph t = g.transposed();
  EXPECT_EQ(t.num_rows(), g.num_cols());
  EXPECT_EQ(t.num_cols(), g.num_rows());
  EXPECT_EQ(t.num_edges(), g.num_edges());
  for (vid_t i = 0; i < g.num_rows(); ++i)
    for (const vid_t j : g.row_neighbors(i)) EXPECT_TRUE(has_edge(t, j, i));
}

TEST(BipartiteGraph, DoubleTransposeIsIdentity) {
  const BipartiteGraph g = make_erdos_renyi(40, 40, 200, 13);
  EXPECT_TRUE(structurally_equal(g, g.transposed().transposed()));
}

TEST(BipartiteGraph, StructuralEqualityDetectsDifference) {
  const BipartiteGraph a = graph_from_rows(2, 2, {{0}, {1}});
  const BipartiteGraph b = graph_from_rows(2, 2, {{1}, {0}});
  EXPECT_TRUE(structurally_equal(a, a));
  EXPECT_FALSE(structurally_equal(a, b));
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
