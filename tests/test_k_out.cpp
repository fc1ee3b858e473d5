/// Tests for the k-out extension: subgraph structure, monotonicity of
/// quality in k, the Walkup 2-out phenomenon, and the subgraph solve
/// against Hopcroft–Karp.

#include <gtest/gtest.h>

#include "core/k_out.hpp"
#include "core/two_sided.hpp"
#include "graph/generators.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/push_relabel.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

TEST(KOut, PicksAreDistinctNeighbors) {
  const BipartiteGraph g = make_erdos_renyi(300, 300, 2400, 3);
  const ScalingResult s = scale_sinkhorn_knopp(g);
  const int k = 3;
  const std::vector<vid_t> picks = sample_row_choices_k(g, s.dc, k, 7);
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    for (int a = 0; a < k; ++a) {
      const vid_t ja = picks[static_cast<std::size_t>(i) * k + static_cast<std::size_t>(a)];
      if (ja == kNil) continue;
      EXPECT_TRUE(g.has_edge(i, ja));
      for (int b = a + 1; b < k; ++b)
        EXPECT_NE(ja, picks[static_cast<std::size_t>(i) * k + static_cast<std::size_t>(b)]);
    }
  }
}

TEST(KOut, SmallNeighborhoodsTakenWhole) {
  const BipartiteGraph g = graph_from_rows(2, 4, {{0, 1}, {0, 1, 2, 3}});
  const std::vector<double> dc(4, 1.0);
  const std::vector<vid_t> picks = sample_row_choices_k(g, dc, 3, 1);
  // Row 0 has only 2 neighbours: both taken, third slot kNil.
  EXPECT_NE(picks[0], kNil);
  EXPECT_NE(picks[1], kNil);
  EXPECT_EQ(picks[2], kNil);
}

TEST(KOut, SubgraphIsSubgraphOfInput) {
  const BipartiteGraph g = make_erdos_renyi(400, 400, 3000, 5);
  const ScalingResult s = scale_sinkhorn_knopp(g);
  const BipartiteGraph sub = k_out_subgraph(g, s, 2, 9);
  EXPECT_EQ(sub.num_rows(), g.num_rows());
  for (vid_t i = 0; i < sub.num_rows(); ++i)
    for (const vid_t j : sub.row_neighbors(i)) EXPECT_TRUE(g.has_edge(i, j));
  EXPECT_LE(sub.num_edges(), 2LL * 2 * (g.num_rows() + g.num_cols()));
}

TEST(KOut, MatchingIsValidForOriginalGraph) {
  const BipartiteGraph g = make_erdos_renyi(1000, 1000, 6000, 7);
  for (const int k : {1, 2, 3}) {
    const Matching m = k_out_match(g, 5, k, 11);
    testing::expect_valid(g, m, "k_out");
  }
}

class KOutQualityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KOutQualityTest, QualityIncreasesWithK) {
  const std::uint64_t seed = GetParam();
  const vid_t n = 2000;
  const BipartiteGraph g = make_planted_perfect(n, 4, seed);
  const double q1 =
      static_cast<double>(k_out_match(g, 5, 1, seed).cardinality()) / n;
  const double q2 =
      static_cast<double>(k_out_match(g, 5, 2, seed).cardinality()) / n;
  const double q3 =
      static_cast<double>(k_out_match(g, 5, 3, seed).cardinality()) / n;
  EXPECT_GE(q2, q1 - 1e-9);
  EXPECT_GE(q3, q2 - 1e-9);
  // Walkup: 2-out random bipartite graphs have perfect matchings a.a.s.
  EXPECT_GE(q2, 0.99);
  EXPECT_GE(q3, 0.999);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KOutQualityTest, ::testing::Range<std::uint64_t>(0, 6));

TEST(KOut, OneOutMatchesTwoSidedGuarantee) {
  // k = 1 is TwoSidedMatch modulo the subgraph solver: both are maximum
  // matchings of (different samples of) 1-out ∪ 1-in subgraphs, so the
  // quality band is the same ~0.866.
  const vid_t n = 4000;
  const BipartiteGraph g = make_full(n);
  const double q =
      static_cast<double>(k_out_match(g, 1, 1, 3).cardinality()) / n;
  EXPECT_NEAR(q, kTwoSidedGuarantee, 0.02);
}

TEST(KOut, RejectsBadK) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  const ScalingResult s = identity_scaling(g);
  EXPECT_THROW((void)k_out_subgraph(g, s, 0, 1), std::invalid_argument);
}

TEST(KOut, WorksOnDeficientGraphs) {
  const BipartiteGraph g = make_erdos_renyi(3000, 3000, 9000, 13);
  const vid_t rank = sprank(g);
  const Matching m = k_out_match(g, 5, 2, 17);
  testing::expect_valid(g, m, "deficient k-out");
  EXPECT_GE(static_cast<double>(m.cardinality()), 0.95 * static_cast<double>(rank));
}

TEST(KOut, SubgraphSolveMatchesHopcroftKarp) {
  // k_out's cardinality must be the maximum matching of its own subgraph:
  // the same seed gives the same k_out_subgraph_ws, solved by Hopcroft–Karp.
  const std::vector<BipartiteGraph> graphs = {
      make_erdos_renyi(3000, 3000, 24000, 1),
      make_power_law(3000, 8.0, 1.8, 2),
      make_planted_perfect(3000, 4, 3),
      make_mesh(40, 60),
      make_erdos_renyi(3000, 3000, 6000, 5),  // deficient
      make_erdos_renyi(1000, 2500, 5000, 6),  // wide
      make_erdos_renyi(2500, 1000, 5000, 7),  // tall
  };
  Workspace ws;
  for (std::size_t t = 0; t < graphs.size(); ++t) {
    const BipartiteGraph& g = graphs[t];
    const ScalingResult s = scale_sinkhorn_knopp(g, {5, 0.0});
    for (const int k : {1, 2, 3}) {
      const std::uint64_t seed = 100 + t;
      Matching m;
      k_out_from_scaling_ws(g, s, k, seed, ws, m);
      testing::expect_valid(g, m, "k_out_from_scaling_ws");
      BipartiteGraph sub;
      k_out_subgraph_ws(g, s, k, seed, ws, sub);
      EXPECT_EQ(m.cardinality(), hopcroft_karp(sub).cardinality())
          << "graph " << t << " k " << k;
      // The convenience form runs the same entry point after scaling.
      Matching via_match;
      k_out_match_ws(g, 5, k, seed, ws, via_match);
      EXPECT_EQ(via_match.cardinality(), m.cardinality()) << "graph " << t << " k " << k;
    }
  }
}

} // namespace
} // namespace bmh
