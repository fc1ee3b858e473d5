/// Cross-cutting parallel-correctness tests: results must not depend on the
/// OpenMP thread count (the property the paper highlights — quality does
/// not deteriorate with parallelism), and repeated parallel runs must stay
/// valid under race-heavy schedules.

#include <gtest/gtest.h>

#include "core/one_sided.hpp"
#include "core/two_sided.hpp"
#include "graph/generators.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "test_helpers.hpp"
#include "util/threading.hpp"

namespace bmh {
namespace {

class ThreadSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreadSweepTest, ScalingIsThreadCountInvariant) {
  ThreadCountGuard guard(GetParam());
  const BipartiteGraph g = make_planted_perfect(2000, 4, 3);
  const ScalingResult r = scale_sinkhorn_knopp(g, {5, 0.0});
  // Reference from a single-threaded run.
  ScalingResult ref;
  {
    ThreadCountGuard inner(1);
    ref = scale_sinkhorn_knopp(g, {5, 0.0});
  }
  ASSERT_EQ(r.dr.size(), ref.dr.size());
  for (std::size_t i = 0; i < r.dr.size(); ++i)
    EXPECT_NEAR(r.dr[i], ref.dr[i], 1e-12 * std::abs(ref.dr[i]) + 1e-300) << i;
  EXPECT_NEAR(r.error, ref.error, 1e-12);
}

TEST_P(ThreadSweepTest, ChoiceSamplingIsThreadCountInvariant) {
  ThreadCountGuard guard(GetParam());
  const BipartiteGraph g = make_erdos_renyi(3000, 3000, 12000, 5);
  const ScalingResult s = scale_sinkhorn_knopp(g, {3, 0.0});
  const TwoSidedChoices ch = sample_two_sided_choices(g, s, 11);
  TwoSidedChoices ref;
  {
    ThreadCountGuard inner(1);
    ref = sample_two_sided_choices(g, s, 11);
  }
  EXPECT_EQ(ch.rchoice, ref.rchoice);
  EXPECT_EQ(ch.cchoice, ref.cchoice);
}

TEST_P(ThreadSweepTest, GeneratorsAreThreadCountInvariant) {
  ThreadCountGuard guard(GetParam());
  const BipartiteGraph g = make_erdos_renyi(2000, 2000, 10000, 7);
  BipartiteGraph ref;
  {
    ThreadCountGuard inner(1);
    ref = make_erdos_renyi(2000, 2000, 10000, 7);
  }
  EXPECT_TRUE(g.structurally_equal(ref));
}

TEST_P(ThreadSweepTest, OneSidedCardinalityIsThreadCountInvariant) {
  // Each row's pick is deterministic; |M| = #distinct picked columns does
  // not depend on which racy write survives.
  ThreadCountGuard guard(GetParam());
  const BipartiteGraph g = make_planted_perfect(3000, 3, 9);
  const ScalingResult s = scale_sinkhorn_knopp(g, {5, 0.0});
  const vid_t card = one_sided_from_scaling(g, s, 13).cardinality();
  vid_t ref;
  {
    ThreadCountGuard inner(1);
    ref = one_sided_from_scaling(g, s, 13).cardinality();
  }
  EXPECT_EQ(card, ref);
}

TEST_P(ThreadSweepTest, TwoSidedCardinalityIsThreadCountInvariant) {
  ThreadCountGuard guard(GetParam());
  const BipartiteGraph g = make_planted_perfect(3000, 3, 15);
  const ScalingResult s = scale_sinkhorn_knopp(g, {5, 0.0});
  const vid_t card = two_sided_from_scaling(g, s, 17).cardinality();
  vid_t ref;
  {
    ThreadCountGuard inner(1);
    ref = two_sided_from_scaling(g, s, 17).cardinality();
  }
  EXPECT_EQ(card, ref);
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweepTest, ::testing::Values(1, 2, 4, 8, 16));

TEST(RaceStress, OneSidedStaysValidUnderManyParallelRuns) {
  const BipartiteGraph g = make_erdos_renyi(4000, 4000, 16000, 3);
  const ScalingResult s = scale_sinkhorn_knopp(g, {3, 0.0});
  for (int rep = 0; rep < 10; ++rep) {
    const Matching m = one_sided_from_scaling(g, s, static_cast<std::uint64_t>(rep));
    testing::expect_valid(g, m, "one_sided stress");
  }
}

TEST(RaceStress, TwoSidedStaysValidAndExactUnderManyParallelRuns) {
  const BipartiteGraph g = make_erdos_renyi(4000, 4000, 16000, 5);
  const ScalingResult s = scale_sinkhorn_knopp(g, {3, 0.0});
  for (int rep = 0; rep < 10; ++rep) {
    const Matching m = two_sided_from_scaling(g, s, static_cast<std::uint64_t>(rep));
    testing::expect_valid(g, m, "two_sided stress");
  }
}

} // namespace
} // namespace bmh
