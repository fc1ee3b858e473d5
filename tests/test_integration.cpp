/// End-to-end integration tests across modules: the full pipelines the
/// paper's experiments run (generate -> scale -> match -> evaluate), the
/// suite instances, jump-start workflows, and I/O round trips feeding the
/// heuristics.

#include <gtest/gtest.h>

#include <sstream>

#include "bmh.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

TEST(Integration, FullPipelineOnSuiteInstances) {
  // Tiny-scale run of the Table 3 pipeline over a representative subset.
  for (const auto& name :
       {"atmosmodl_like", "torso1_like", "road_usa_like", "kkt_power_like"}) {
    const SuiteInstance inst = make_suite_instance(name, 0.01, 42);
    const vid_t rank = sprank(inst.graph);

    const Matching one = one_sided_match(inst.graph, 5, 1);
    testing::expect_valid(inst.graph, one, name);
    EXPECT_GE(matching_quality(one, rank), kOneSidedGuarantee - 0.03) << name;

    const Matching two = two_sided_match(inst.graph, 5, 1);
    testing::expect_valid(inst.graph, two, name);
    EXPECT_GE(matching_quality(two, rank), kTwoSidedGuarantee - 0.03) << name;
  }
}

TEST(Integration, JumpStartReducesAugmentationWork) {
  // The paper's motivating use: feed the heuristic matching to an exact
  // solver. The warm-started solver must do far fewer augmentations.
  const BipartiteGraph g = make_erdos_renyi(20000, 20000, 100000, 3);
  const Matching warm = two_sided_match(g, 5, 7);
  const vid_t already = warm.cardinality();
  const Matching exact = hopcroft_karp(g, &warm);
  const vid_t optimum = exact.cardinality();
  testing::expect_valid(g, exact, "jump-start");
  EXPECT_GE(optimum, already);
  // The heuristic must have done at least the conjectured share of the work.
  EXPECT_GE(static_cast<double>(already),
            (kTwoSidedGuarantee - 0.02) * static_cast<double>(optimum));
}

TEST(Integration, MatrixMarketRoundTripThroughHeuristics) {
  const BipartiteGraph g = make_planted_perfect(400, 3, 9);
  std::stringstream buffer;
  write_matrix_market(buffer, g);
  const BipartiteGraph loaded = read_matrix_market(buffer);
  ASSERT_TRUE(g.structurally_equal(loaded));
  const Matching m = two_sided_match(loaded, 5, 2);
  testing::expect_valid(loaded, m, "mtx roundtrip");
  EXPECT_GE(matching_quality(m, 400), kTwoSidedGuarantee - 0.02);
}

TEST(Integration, ScalingQualityChainOnAdversarial) {
  // Table 1, one cell, end to end: n=256, k=8, 10 iterations, min of 5.
  const BipartiteGraph g = make_ks_adversarial(256, 8);
  vid_t ts_worst = 256;
  for (std::uint64_t seed = 0; seed < 5; ++seed)
    ts_worst = std::min(ts_worst, two_sided_match(g, 10, seed).cardinality());
  EXPECT_GE(static_cast<double>(ts_worst) / 256.0, 0.96);
}

TEST(Integration, DmGuidedInterpretationOfScaling) {
  // §3.3 chain: DM-decompose, scale, and confirm the probability mass each
  // row assigns to coupling entries is negligible after enough iterations.
  const BipartiteGraph g = make_dm_structured(15, 25, 30, 28, 18, 2, 3);
  const DmDecomposition dm = dulmage_mendelsohn(g, hopcroft_karp(g));
  const ScalingResult s = scale_sinkhorn_knopp(g, {100, 0.0});
  double worst_coupling_mass = 0.0;
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    double coupling = 0.0, total = 0.0;
    for (const vid_t j : g.row_neighbors(i)) {
      const double e = s.entry(i, j);
      total += e;
      if (dm.row_part[static_cast<std::size_t>(i)] !=
          dm.col_part[static_cast<std::size_t>(j)])
        coupling += e;
    }
    if (total > 0.0) worst_coupling_mass = std::max(worst_coupling_mass, coupling / total);
  }
  EXPECT_LT(worst_coupling_mass, 0.1);
}

TEST(Integration, HeuristicLadderOrderingOnRandomInstances) {
  // Expected quality ordering on ER graphs: two_sided > one_sided, and
  // two_sided >= karp_sipser - small slack (KS is strong on sparse random
  // inputs; the adversarial family is where two_sided wins decisively).
  const BipartiteGraph g = make_erdos_renyi(10000, 10000, 50000, 11);
  const vid_t rank = sprank(g);
  const double q_one = matching_quality(one_sided_match(g, 5, 3), rank);
  const double q_two = matching_quality(two_sided_match(g, 5, 3), rank);
  EXPECT_GT(q_two, q_one);
  EXPECT_GE(q_one, kOneSidedGuarantee);
  EXPECT_GE(q_two, kTwoSidedGuarantee);
}

TEST(Integration, EndToEndOnEveryZooGraph) {
  for (const auto& g : testing::small_graph_zoo()) {
    const vid_t rank = sprank(g);
    for (const int iters : {0, 1, 5}) {
      const Matching one = one_sided_match(g, iters, 3);
      const Matching two = two_sided_match(g, iters, 3);
      testing::expect_valid(g, one, "zoo one");
      testing::expect_valid(g, two, "zoo two");
      EXPECT_LE(one.cardinality(), rank);
      EXPECT_LE(two.cardinality(), rank);
    }
  }
}

} // namespace
} // namespace bmh
