/// Unit tests for COO -> CSR assembly: deduplication, validation, ordering
/// invariance, and reuse.

#include <gtest/gtest.h>

#include <vector>

#include "builders.hpp"
#include "graph/builder.hpp"

namespace bmh {
namespace {

using namespace testing;

TEST(GraphBuilder, DeduplicatesRepeatedEdges) {
  GraphBuilder b(2, 2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  const BipartiteGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(has_edge(g, 0, 1));
  EXPECT_TRUE(has_edge(g, 1, 0));
}

TEST(GraphBuilder, SortsColumnsWithinRow) {
  GraphBuilder b(1, 5);
  b.add_edge(0, 4);
  b.add_edge(0, 0);
  b.add_edge(0, 2);
  const BipartiteGraph g = b.build();
  const auto nbrs = g.row_neighbors(0);
  EXPECT_EQ(std::vector<vid_t>(nbrs.begin(), nbrs.end()), (std::vector<vid_t>{0, 2, 4}));
}

TEST(GraphBuilder, ThrowsOnOutOfRangeIds) {
  GraphBuilder b(2, 2);
  b.add_edge(0, 2);
  EXPECT_THROW((void)b.build(), std::out_of_range);
  GraphBuilder b2(2, 2);
  b2.add_edge(2, 0);
  EXPECT_THROW((void)b2.build(), std::out_of_range);
  GraphBuilder b3(2, 2);
  b3.add_edge(-1, 0);
  EXPECT_THROW((void)b3.build(), std::out_of_range);
}

TEST(GraphBuilder, RejectsNegativeDimensions) {
  EXPECT_THROW(GraphBuilder(-1, 2), std::invalid_argument);
  EXPECT_THROW(GraphBuilder(2, -1), std::invalid_argument);
}

TEST(GraphBuilder, IsReusableAfterBuild) {
  GraphBuilder b(2, 2);
  b.add_edge(0, 0);
  const BipartiteGraph g1 = b.build();
  EXPECT_EQ(g1.num_edges(), 1);
  EXPECT_EQ(b.pending_edges(), 0u);
  b.add_edge(1, 1);
  const BipartiteGraph g2 = b.build();
  EXPECT_EQ(g2.num_edges(), 1);
  EXPECT_TRUE(has_edge(g2, 1, 1));
  EXPECT_FALSE(has_edge(g2, 0, 0));
}

TEST(GraphBuilder, InsertionOrderDoesNotMatter) {
  std::vector<Edge> edges = {{0, 1}, {1, 0}, {2, 2}, {0, 0}};
  const BipartiteGraph a = graph_from_edges(3, 3, edges);
  std::reverse(edges.begin(), edges.end());
  const BipartiteGraph b = graph_from_edges(3, 3, edges);
  EXPECT_TRUE(structurally_equal(a, b));
}

TEST(GraphBuilder, EmptyBuildGivesEmptyGraph) {
  GraphBuilder b(3, 4);
  const BipartiteGraph g = b.build();
  EXPECT_EQ(g.num_rows(), 3);
  EXPECT_EQ(g.num_cols(), 4);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(GraphFromRows, RowCountMismatchThrows) {
  EXPECT_THROW((void)graph_from_rows(2, 2, {{0}}), std::invalid_argument);
}

TEST(GraphFromRows, BuildsExpectedStructure) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0, 1}, {}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.row_degree(0), 2);
  EXPECT_EQ(g.row_degree(1), 0);
}

} // namespace
} // namespace bmh
