/// Tests for the cheap-matching baselines: validity, maximality, the 1/2
/// worst-case bound, determinism in the seed.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/push_relabel.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

using namespace testing;

using GreedyFn = void (*)(const BipartiteGraph&, std::uint64_t, Workspace&, Matching&);

class GreedyHeuristicTest : public ::testing::TestWithParam<GreedyFn> {};

TEST_P(GreedyHeuristicTest, ValidOnZoo) {
  const GreedyFn fn = GetParam();
  for (const auto& g : testing::small_graph_zoo()) {
    const Matching m = run_ws(fn, g, 7);
    testing::expect_valid(g, m, "greedy on zoo");
  }
}

TEST_P(GreedyHeuristicTest, MaximalOnZoo) {
  const GreedyFn fn = GetParam();
  for (const auto& g : testing::small_graph_zoo()) {
    EXPECT_TRUE(is_maximal_matching(g, run_ws(fn, g, 3)));
  }
}

TEST_P(GreedyHeuristicTest, AtLeastHalfOfOptimal) {
  const GreedyFn fn = GetParam();
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const BipartiteGraph g = make_erdos_renyi(300, 300, 1200, seed);
    const vid_t opt = run_ws(sprank_ws, g);
    const Matching m = run_ws(fn, g, seed * 11 + 1);
    EXPECT_GE(2 * m.cardinality(), opt) << "seed " << seed;
  }
}

TEST_P(GreedyHeuristicTest, DeterministicInSeed) {
  const GreedyFn fn = GetParam();
  const BipartiteGraph g = make_erdos_renyi(200, 200, 800, 3);
  const Matching a = run_ws(fn, g, 99);
  const Matching b = run_ws(fn, g, 99);
  EXPECT_EQ(a.row_match, b.row_match);
}

INSTANTIATE_TEST_SUITE_P(Variants, GreedyHeuristicTest,
                         ::testing::Values(&match_random_edges_ws,
                                           &match_random_vertices_ws));

TEST(MinDegreeGreedy, ValidMaximalAndDeterministic) {
  for (const auto& g : testing::small_graph_zoo()) {
    const Matching m = run_ws(match_min_degree_ws, g);
    testing::expect_valid(g, m, "mindegree");
    EXPECT_TRUE(is_maximal_matching(g, m));
  }
  const BipartiteGraph g = make_erdos_renyi(200, 200, 900, 5);
  EXPECT_EQ(run_ws(match_min_degree_ws, g).row_match,
            run_ws(match_min_degree_ws, g).row_match);
}

TEST(MinDegreeGreedy, PerfectOnPermutation) {
  const BipartiteGraph g = graph_from_rows(4, 4, {{2}, {0}, {3}, {1}});
  EXPECT_EQ(run_ws(match_min_degree_ws, g).cardinality(), 4);
}

TEST(Greedy, HandlesEmptyGraph) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{}, {}, {}});
  EXPECT_EQ(run_ws(match_random_edges_ws, g, 1).cardinality(), 0);
  EXPECT_EQ(run_ws(match_random_vertices_ws, g, 1).cardinality(), 0);
  EXPECT_EQ(run_ws(match_min_degree_ws, g).cardinality(), 0);
}

TEST(Greedy, PerfectOnCompleteGraph) {
  const BipartiteGraph g = make_full(20);
  EXPECT_EQ(run_ws(match_random_edges_ws, g, 2).cardinality(), 20);
  EXPECT_EQ(run_ws(match_random_vertices_ws, g, 2).cardinality(), 20);
  EXPECT_EQ(run_ws(match_min_degree_ws, g).cardinality(), 20);
}

} // namespace
} // namespace bmh
