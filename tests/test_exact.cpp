/// Tests for the exact solvers (Hopcroft-Karp, MC21): agreement with a
/// brute-force oracle on small random graphs, mutual agreement on larger
/// ones, warm starts, and structured instances with known sprank.

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/mc21.hpp"
#include "matching/push_relabel.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

TEST(HopcroftKarp, MatchesBruteForceOnSmallRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const vid_t rows = 2 + static_cast<vid_t>(seed % 7);
    const vid_t cols = 2 + static_cast<vid_t>((seed / 7) % 7);
    const BipartiteGraph g =
        make_erdos_renyi(rows, cols, static_cast<eid_t>(rows) * 2, seed);
    const Matching m = hopcroft_karp(g);
    testing::expect_valid(g, m, "hk");
    EXPECT_EQ(m.cardinality(), testing::brute_force_max_matching(g))
        << "seed " << seed << " dims " << rows << "x" << cols;
  }
}

TEST(Mc21, MatchesBruteForceOnSmallRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const vid_t rows = 2 + static_cast<vid_t>(seed % 6);
    const vid_t cols = 2 + static_cast<vid_t>((seed / 6) % 6);
    const BipartiteGraph g =
        make_erdos_renyi(rows, cols, static_cast<eid_t>(rows) * 2, seed + 1000);
    const Matching m = mc21(g);
    testing::expect_valid(g, m, "mc21");
    EXPECT_EQ(m.cardinality(), testing::brute_force_max_matching(g)) << "seed " << seed;
  }
}

TEST(ExactSolvers, AgreeOnMediumRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const BipartiteGraph g = make_erdos_renyi(800, 900, 4000, seed);
    EXPECT_EQ(hopcroft_karp(g).cardinality(), mc21(g).cardinality()) << seed;
  }
}

TEST(ExactSolvers, AgreeOnStructuredInstances) {
  const BipartiteGraph mesh = make_mesh(20, 20);
  EXPECT_EQ(hopcroft_karp(mesh).cardinality(), mc21(mesh).cardinality());
  const BipartiteGraph adv = make_ks_adversarial(128, 8);
  EXPECT_EQ(hopcroft_karp(adv).cardinality(), 128);
  EXPECT_EQ(mc21(adv).cardinality(), 128);
}

TEST(HopcroftKarp, KnownSprankOnDeficientFamilies) {
  // Road-like with drops: sprank is strictly below n but above 0.85n.
  const BipartiteGraph g = make_road_like(3000, 0.0, 0.1, 5);
  const vid_t rank = sprank(g);
  EXPECT_LT(rank, 3000);
  EXPECT_GT(rank, 2550);
}

TEST(HopcroftKarp, WarmStartPreservesOptimality) {
  const BipartiteGraph g = make_erdos_renyi(500, 500, 2500, 13);
  const vid_t cold = hopcroft_karp(g).cardinality();
  const Matching warm_init = match_random_vertices(g, 3);
  const Matching warm = hopcroft_karp(g, &warm_init);
  testing::expect_valid(g, warm, "warm hk");
  EXPECT_EQ(warm.cardinality(), cold);
}

TEST(Mc21, WarmStartPreservesOptimality) {
  const BipartiteGraph g = make_erdos_renyi(500, 500, 2500, 17);
  const vid_t cold = mc21(g).cardinality();
  const Matching warm_init = match_min_degree(g);
  const Matching warm = mc21(g, &warm_init);
  EXPECT_EQ(warm.cardinality(), cold);
}

TEST(ExactSolvers, RejectInvalidWarmStart) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  Matching bad(2, 2);
  bad.match(0, 1);  // not an edge
  EXPECT_THROW((void)hopcroft_karp(g, &bad), std::invalid_argument);
  EXPECT_THROW((void)mc21(g, &bad), std::invalid_argument);
}

TEST(ExactSolvers, PerfectOnPlantedFamilies) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const BipartiteGraph g = make_planted_perfect(1500, 2, seed);
    EXPECT_EQ(sprank(g), 1500);
  }
}

TEST(ExactSolvers, RectangularWideAndTall) {
  const BipartiteGraph wide = make_erdos_renyi(100, 300, 900, 3);
  EXPECT_EQ(hopcroft_karp(wide).cardinality(), mc21(wide).cardinality());
  const BipartiteGraph tall = make_erdos_renyi(300, 100, 900, 4);
  EXPECT_EQ(hopcroft_karp(tall).cardinality(), mc21(tall).cardinality());
}

TEST(ExactSolvers, ZooAgreesWithBruteForce) {
  for (const auto& g : testing::small_graph_zoo()) {
    const vid_t expected = testing::brute_force_max_matching(g);
    EXPECT_EQ(hopcroft_karp(g).cardinality(), expected);
    EXPECT_EQ(mc21(g).cardinality(), expected);
  }
}

TEST(HopcroftKarp, DeepPathRequiresLongAugmentations) {
  // A long alternating chain: row i connects to columns i and i+1; the
  // unique perfect matching needs augmenting paths of increasing length.
  const vid_t n = 20000;
  std::vector<std::vector<vid_t>> rows(static_cast<std::size_t>(n));
  for (vid_t i = 0; i < n; ++i) {
    rows[static_cast<std::size_t>(i)].push_back(i);
    if (i + 1 < n) rows[static_cast<std::size_t>(i)].push_back(i + 1);
  }
  const BipartiteGraph g = graph_from_rows(n, n, rows);
  EXPECT_EQ(sprank(g), n);  // also exercises the iterative (non-recursive) DFS
}

} // namespace
} // namespace bmh
