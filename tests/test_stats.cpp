/// Unit tests for degree statistics.

#include <gtest/gtest.h>

#include "builders.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"

namespace bmh {
namespace {

using namespace testing;

TEST(Stats, HandComputedExample) {
  // Degrees: row0 = 2, row1 = 0, row2 = 1.
  const BipartiteGraph g = graph_from_rows(3, 3, {{0, 1}, {}, {2}});
  const DegreeStats s = row_degree_stats(g);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 2);
  EXPECT_NEAR(s.mean, 1.0, 1e-12);
  EXPECT_NEAR(s.variance, 2.0 / 3.0, 1e-12);  // ((2-1)^2+(0-1)^2+(1-1)^2)/3
  EXPECT_EQ(s.num_zero, 1);
  EXPECT_EQ(s.num_degree_one, 1);
}

TEST(Stats, RegularGraphHasZeroVariance) {
  const BipartiteGraph g = make_row_regular(200, 3, 1);
  const DegreeStats s = row_degree_stats(g);
  EXPECT_EQ(s.min, 3);
  EXPECT_EQ(s.max, 3);
  EXPECT_NEAR(s.variance, 0.0, 1e-12);
}

TEST(Stats, AverageDegreeMatchesDefinition) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0, 1}, {0}});
  // 2 * 3 edges / 4 vertices = 1.5.
  EXPECT_NEAR(average_degree(g), 1.5, 1e-12);
}

TEST(Stats, FullMatrixDegrees) {
  const BipartiteGraph g = make_full(16);
  const DegreeStats s = row_degree_stats(g);
  EXPECT_EQ(s.min, 16);
  EXPECT_EQ(s.max, 16);
  EXPECT_EQ(s.num_zero, 0);
  EXPECT_EQ(s.num_degree_one, 0);
}

} // namespace
} // namespace bmh
