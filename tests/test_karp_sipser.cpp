/// Tests for the classic sequential Karp-Sipser baseline: validity,
/// optimality of Phase-1-only runs, the degree-one theorem, and the
/// documented failure mode on the Fig. 2 adversarial family.

#include <gtest/gtest.h>

#include <string>

#include "graph/generators.hpp"
#include "matching/karp_sipser.hpp"
#include "matching/push_relabel.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

using namespace testing;

TEST(KarpSipser, ValidOnZoo) {
  for (const auto& g : testing::small_graph_zoo()) {
    const Matching m = run_ws(karp_sipser_ws, g, 5, nullptr);
    testing::expect_valid(g, m, "karp_sipser");
    EXPECT_TRUE(is_maximal_matching(g, m));
  }
}

TEST(KarpSipser, ExactOnTrees) {
  // A path graph is consumed entirely by Phase 1, so KS is exact on it.
  const BipartiteGraph path =
      graph_from_rows(4, 4, {{0}, {0, 1}, {1, 2}, {2, 3}});
  KarpSipserStats stats;
  const Matching m = run_ws(karp_sipser_ws, path, 1, &stats);
  EXPECT_EQ(m.cardinality(), run_ws(sprank_ws, path));
  EXPECT_EQ(stats.phase2_matches, 0);
}

TEST(KarpSipser, ExactOnSingleCycle) {
  // One random pick breaks the cycle; Phase 1 finishes it optimally.
  const BipartiteGraph g = make_cycle(17);
  for (std::uint64_t seed = 0; seed < 5; ++seed)
    EXPECT_EQ(run_ws(karp_sipser_ws, g, seed, nullptr).cardinality(), 17);
}

TEST(KarpSipser, PhaseOneOnlyWhenDegreeOneSeedsExist) {
  // Adversarial family with k<=1: the paper notes KS consumes the whole
  // graph in Phase 1 and is exact.
  const BipartiteGraph g = make_ks_adversarial(64, 1);
  KarpSipserStats stats;
  const Matching m = run_ws(karp_sipser_ws, g, 3, &stats);
  EXPECT_EQ(m.cardinality(), 64);
}

TEST(KarpSipser, DegradesOnAdversarialFamilyAsKGrows) {
  // Table 1's phenomenon: quality drops well below 1 for k >> 1 but stays
  // >= 1/2 (KS output is maximal).
  const vid_t n = 512;
  const BipartiteGraph g = make_ks_adversarial(n, 16);
  vid_t worst = n;
  for (std::uint64_t seed = 0; seed < 10; ++seed)
    worst = std::min(worst, run_ws(karp_sipser_ws, g, seed, nullptr).cardinality());
  const double quality = static_cast<double>(worst) / static_cast<double>(n);
  EXPECT_LT(quality, 0.95);  // measurably sub-optimal
  EXPECT_GE(quality, 0.5);
}

TEST(KarpSipser, NearPerfectOnSparseRandomGraphs) {
  // KS matches all but ~O(n^{1/5}) vertices of sparse random graphs; at
  // this size a 2% slack is generous.
  const BipartiteGraph g = make_erdos_renyi(4000, 4000, 3 * 4000, 11);
  const vid_t opt = run_ws(sprank_ws, g);
  const Matching m = run_ws(karp_sipser_ws, g, 1, nullptr);
  EXPECT_GE(static_cast<double>(m.cardinality()),
            0.98 * static_cast<double>(opt));
}

TEST(KarpSipser, DeterministicInSeed) {
  const BipartiteGraph g = make_erdos_renyi(500, 500, 2000, 9);
  const Matching a = run_ws(karp_sipser_ws, g, 42, nullptr);
  const Matching b = run_ws(karp_sipser_ws, g, 42, nullptr);
  EXPECT_EQ(a.row_match, b.row_match);
}

TEST(KarpSipser, StatsAccountForAllMatches) {
  const BipartiteGraph g = make_erdos_renyi(300, 300, 1500, 2);
  KarpSipserStats stats;
  const Matching m = run_ws(karp_sipser_ws, g, 7, &stats);
  EXPECT_EQ(stats.phase1_matches + stats.phase2_matches, m.cardinality());
}

TEST(KarpSipser, HandlesRectangularAndDeficient) {
  const BipartiteGraph g = make_erdos_renyi(150, 200, 400, 21);
  const Matching m = run_ws(karp_sipser_ws, g, 3, nullptr);
  testing::expect_valid(g, m, "rectangular");
  EXPECT_GE(2 * m.cardinality(), run_ws(sprank_ws, g));
}

TEST(KarpSipser, EmptyGraph) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{}, {}});
  EXPECT_EQ(run_ws(karp_sipser_ws, g, 1, nullptr).cardinality(), 0);
}

TEST(KarpSipser, Phase2RetiresMatchedEdgesFromThePool) {
  // Regression for the live-pool leak: a matched edge used to stay in the
  // Phase-2 pool and be re-drawn later as a stale hit. With swap-removal on
  // every draw, each draw retires exactly one pool entry, so total draws
  // can never exceed the edge count — on dense graphs, where Phase 2 does
  // all the work, the leaky version exceeds this bound.
  const BipartiteGraph g = make_full(48);  // no degree-1 seeds: pure Phase 2
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    KarpSipserStats stats;
    const Matching m = run_ws(karp_sipser_ws, g, seed, &stats);
    EXPECT_LE(stats.phase2_draws, g.num_edges()) << "seed " << seed;
    EXPECT_GT(stats.phase2_matches, 0) << "seed " << seed;
    testing::expect_valid(g, m, "dense phase-2");
    EXPECT_TRUE(is_maximal_matching(g, m));
    // Any maximal matching of K_{n,n} is perfect.
    EXPECT_EQ(m.cardinality(), 48);
  }
}

TEST(KarpSipser, FixedSeedDenseGraphStaysValidMaximal) {
  // Fixed-seed regression on a dense ER instance: the pool fix changes the
  // draw sequence, so pin down that the result is still a deterministic,
  // valid, maximal matching with draws bounded by the edge count.
  const BipartiteGraph g = make_erdos_renyi(256, 256, 256 * 48, 17);
  KarpSipserStats stats;
  const Matching m = run_ws(karp_sipser_ws, g, 1234, &stats);
  testing::expect_valid(g, m, "dense er");
  EXPECT_TRUE(is_maximal_matching(g, m));
  EXPECT_LE(stats.phase2_draws, g.num_edges());
  EXPECT_EQ(stats.phase1_matches + stats.phase2_matches, m.cardinality());
  const Matching repeat = run_ws(karp_sipser_ws, g, 1234, nullptr);
  EXPECT_EQ(m.row_match, repeat.row_match);
}

TEST(KarpSipser, OutputPinnedAcrossVersions) {
  // Golden values captured from the kernel before Phase 2 drew its pool
  // indices ahead of use: the lookahead must leave every matching and every
  // counter bit-identical. The graphs are large_warm's three families at
  // 2^14. phase2_draws was re-captured when Phase 2 learned to stop at the
  // last live edge; the fingerprints and match counts are the original
  // captures.
  constexpr vid_t n = 1 << 14;
  const BipartiteGraph er = make_erdos_renyi(n, n, 8 * static_cast<eid_t>(n), 11);
  const BipartiteGraph powerlaw = make_power_law(n, 8.0, 1.8, 12);
  const BipartiteGraph planted = make_planted_perfect(n, 7, 13);
  struct Pin {
    const BipartiteGraph* g;
    std::uint64_t seed;
    std::uint64_t row_match_fingerprint;
    KarpSipserStats stats;
  };
  const Pin pins[] = {
      {&er, 1, 0x8e3689b91d1e4596ull, {7988, 8384, 35309}},
      {&er, 2, 0x344b09c0bf5ce731ull, {7991, 8384, 32147}},
      {&er, 3, 0xe73fd9c2fd44133full, {8084, 8293, 34525}},
      {&powerlaw, 1, 0xb0c5e88cdd8910e8ull, {8965, 7417, 53608}},
      {&powerlaw, 2, 0x4b81ad5d1f4d5ba1ull, {8975, 7405, 29818}},
      {&powerlaw, 3, 0x811bad20927bf6abull, {9047, 7332, 26575}},
      {&planted, 1, 0x9f4f1bd16ce48f1dull, {6889, 9491, 37761}},
      {&planted, 2, 0x01afca2360a58667ull, {6865, 9515, 30544}},
      {&planted, 3, 0xccdc4eb1bf4d3b99ull, {6818, 9564, 38354}},
  };
  for (const Pin& pin : pins) {
    KarpSipserStats stats;
    const Matching m = run_ws(karp_sipser_ws, *pin.g, pin.seed, &stats);
    const std::string where = "edges " + std::to_string(pin.g->num_edges()) + ", seed " +
                              std::to_string(pin.seed);
    EXPECT_EQ(testing::bit_fingerprint(m.row_match), pin.row_match_fingerprint) << where;
    EXPECT_EQ(stats.phase1_matches, pin.stats.phase1_matches) << where;
    EXPECT_EQ(stats.phase2_matches, pin.stats.phase2_matches) << where;
    EXPECT_EQ(stats.phase2_draws, pin.stats.phase2_draws) << where;
  }
}

} // namespace
} // namespace bmh
