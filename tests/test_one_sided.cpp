/// Tests for OneSidedMatch (Algorithm 2): validity under racy writes, the
/// Theorem 1 bound (statistically, and exactly-in-expectation on the
/// all-ones matrix), and robustness on graphs without perfect matchings.

#include <gtest/gtest.h>

#include "analysis/quality.hpp"
#include "core/choice.hpp"
#include "core/one_sided.hpp"
#include "graph/generators.hpp"
#include "matching/push_relabel.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

using testing::run_ws;

TEST(OneSided, ValidOnZoo) {
  for (const auto& g : testing::small_graph_zoo()) {
    const Matching m = run_ws(one_sided_match_ws, g, 5, 3);
    testing::expect_valid(g, m, "one_sided zoo");
  }
}

TEST(OneSided, MeetsGuaranteeOnFullMatrix) {
  // The all-ones matrix is the tight case for Theorem 1: expected matched
  // fraction -> 1 - 1/e. Check the worst of 10 runs clears 0.632 - slack.
  const vid_t n = 4000;
  const BipartiteGraph g = make_full(n);
  double worst = 1.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Matching m = run_ws(one_sided_match_ws, g, 1, seed);
    worst = std::min(worst,
                     static_cast<double>(m.cardinality()) / static_cast<double>(n));
  }
  EXPECT_GE(worst, kOneSidedGuarantee - 0.02);
  // And it should not be much above the limit either (the bound is tight).
  EXPECT_LE(worst, kOneSidedGuarantee + 0.03);
}

class OneSidedFamilyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OneSidedFamilyTest, MeetsGuaranteeOnPlantedPerfect) {
  const std::uint64_t seed = GetParam();
  const vid_t n = 3000;
  const BipartiteGraph g = make_planted_perfect(n, 3, seed);
  const Matching m = run_ws(one_sided_match_ws, g, 10, seed + 1);
  testing::expect_valid(g, m, "planted");
  EXPECT_GE(static_cast<double>(m.cardinality()) / static_cast<double>(n),
            kOneSidedGuarantee - 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneSidedFamilyTest, ::testing::Range<std::uint64_t>(0, 8));

TEST(OneSided, QualityImprovesWithScalingIterationsOnAdversarial) {
  const BipartiteGraph g = make_ks_adversarial(512, 16);
  const vid_t n = 512;
  double q0 = 0, q10 = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    q0 += static_cast<double>(run_ws(one_sided_match_ws, g, 0, seed).cardinality()) / n;
    q10 += static_cast<double>(run_ws(one_sided_match_ws, g, 10, seed).cardinality()) / n;
  }
  EXPECT_GT(q10, q0 + 0.1);  // scaling steers picks away from the full block
}

TEST(OneSided, WorksOnSprankDeficientGraphs) {
  const BipartiteGraph g = make_erdos_renyi(2000, 2000, 2 * 2000, 9);
  const vid_t rank = run_ws(sprank_ws, g);
  const Matching m = run_ws(one_sided_match_ws, g, 5, 1);
  testing::expect_valid(g, m, "deficient");
  EXPECT_GE(matching_quality(m, rank), kOneSidedGuarantee);
}

TEST(OneSided, WorksOnRectangularGraphs) {
  const BipartiteGraph g = make_erdos_renyi(1000, 1200, 3000, 4);
  const vid_t rank = run_ws(sprank_ws, g);
  const Matching m = run_ws(one_sided_match_ws, g, 5, 2);
  testing::expect_valid(g, m, "rectangular");
  EXPECT_GE(matching_quality(m, rank), kOneSidedGuarantee - 0.02);
}

TEST(OneSided, ZeroIterationsEqualsUniformPick) {
  // With no scaling the heuristic is still valid, just weaker.
  const BipartiteGraph g = make_erdos_renyi(1000, 1000, 4000, 8);
  const Matching m = run_ws(one_sided_match_ws, g, 0, 5);
  testing::expect_valid(g, m, "no scaling");
  EXPECT_GT(m.cardinality(), 0);
}

TEST(OneSided, CardinalityDeterministicInSeedGivenScaling) {
  // The per-row choices are deterministic, so the set of picked columns —
  // and hence |M| — is reproducible. Which row's racy write survives on a
  // contested column is scheduling-dependent (and deliberately so: the
  // paper's point is that any surviving write is fine), so we do NOT
  // compare the match arrays themselves.
  const BipartiteGraph g = make_planted_perfect(500, 3, 2);
  const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{});
  const Matching a = run_ws(one_sided_from_scaling_ws, g, s, 7);
  const Matching b = run_ws(one_sided_from_scaling_ws, g, s, 7);
  EXPECT_EQ(a.cardinality(), b.cardinality());
  testing::expect_valid(g, a, "run a");
  testing::expect_valid(g, b, "run b");
  // Every matched column's winner must be a row that actually chose it.
  const std::vector<vid_t> choices = run_ws(sample_row_choices, g, s.dc, 7);
  for (vid_t j = 0; j < g.num_cols(); ++j) {
    const vid_t winner = a.col_match[static_cast<std::size_t>(j)];
    if (winner != kNil) {
      EXPECT_EQ(choices[static_cast<std::size_t>(winner)], j);
    }
  }
}

TEST(OneSided, CardinalityEqualsDistinctChosenColumns) {
  // Structural property: |M| = #{distinct columns picked}; every column
  // with at least one pick is matched.
  const BipartiteGraph g = make_full(64);
  const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{1, 0.0});
  const Matching m = run_ws(one_sided_from_scaling_ws, g, s, 3);
  vid_t matched_cols = 0;
  for (vid_t j = 0; j < g.num_cols(); ++j)
    if (m.col_matched(j)) ++matched_cols;
  EXPECT_EQ(matched_cols, m.cardinality());
}

} // namespace
} // namespace bmh
