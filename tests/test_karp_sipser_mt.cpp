/// Tests for KarpSipserMT (Algorithm 4). The central property — the paper's
/// Lemmas 1-3 — is that it is an *exact* maximum matching algorithm on the
/// choice subgraphs, for any thread count. We certify against Hopcroft-Karp
/// on the materialized subgraph across many random instances.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/one_out_structure.hpp"
#include "core/karp_sipser_mt.hpp"
#include "core/two_sided.hpp"
#include "graph/generators.hpp"
#include "matching/push_relabel.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "test_helpers.hpp"
#include "util/threading.hpp"

namespace bmh {
namespace {

using testing::run_ws;

/// Toy graph of the paper's Figure 1: 9 rows (circles) and 9 columns
/// (squares) with each vertex's single outgoing choice. Vertex labels 1-18
/// in the figure map to rows 1..9 -> ids 0..8 and columns 10..18 -> 9..17
/// here. The exact arrows are not printed in the text, so we use a
/// same-shape instance: chains feeding a cycle, exercising out-one chains,
/// in-one targets, and Phase-2 cycle resolution.
std::vector<vid_t> figure1_like_choice() {
  // Rows are ids 0..8, columns are ids 9..17.
  std::vector<vid_t> choice(18, kNil);
  // A 6-cycle: r0 -> c0 -> r1 -> c1 -> r2 -> c2 -> r0.
  choice[0] = 9;
  choice[9] = 1;
  choice[1] = 10;
  choice[10] = 2;
  choice[2] = 11;
  choice[11] = 0;
  // A chain of out-ones feeding the cycle: r3 -> c3 -> r4 -> c0 (in cycle).
  choice[3] = 12;
  choice[12] = 4;
  choice[4] = 9;
  // A reciprocal 2-clique: r5 <-> c4.
  choice[5] = 13;
  choice[13] = 5;
  // A tree: c5 -> r6, r6 -> c6, c6 -> r6's target... keep it simple:
  choice[14] = 6;
  choice[6] = 15;
  choice[15] = 7;
  choice[7] = 16;
  choice[16] = 7;  // reciprocal with r7
  // r8/c8 isolated pair choosing each other.
  choice[8] = 17;
  choice[17] = 8;
  return choice;
}

TEST(KarpSipserMT, ExactOnFigure1LikeToyGraph) {
  const std::vector<vid_t> choice = figure1_like_choice();
  const Matching m = run_ws(karp_sipser_mt_ws, 9, 9, choice, nullptr);

  // Materialize and compare against the exact solver.
  std::vector<vid_t> rchoice(9, kNil), cchoice(9, kNil);
  for (vid_t i = 0; i < 9; ++i)
    rchoice[static_cast<std::size_t>(i)] =
        choice[static_cast<std::size_t>(i)] == kNil ? kNil
                                                    : choice[static_cast<std::size_t>(i)] - 9;
  for (vid_t j = 0; j < 9; ++j)
    cchoice[static_cast<std::size_t>(j)] = choice[static_cast<std::size_t>(9 + j)];
  const BipartiteGraph sub = materialize_choice_graph(9, 9, rchoice, cchoice);
  testing::expect_valid(sub, m, "figure1");
  EXPECT_EQ(m.cardinality(), run_ws(sprank_ws, sub));
}

TEST(KarpSipserMT, HandlesAllNilChoices) {
  const std::vector<vid_t> choice(10, kNil);
  const Matching m = run_ws(karp_sipser_mt_ws, 5, 5, choice, nullptr);
  EXPECT_EQ(m.cardinality(), 0);
}

TEST(KarpSipserMT, SizeMismatchThrows) {
  const std::vector<vid_t> choice(7, kNil);
  EXPECT_THROW((void)run_ws(karp_sipser_mt_ws, 5, 5, choice, nullptr),
               std::invalid_argument);
}

TEST(KarpSipserMT, SameSideChoiceRejected) {
  // Row 0 "choosing" row 1 would violate bipartiteness and corrupt the
  // phase invariants; the algorithm must reject it.
  std::vector<vid_t> choice(4, kNil);
  choice[0] = 1;  // row -> row
  EXPECT_THROW((void)run_ws(karp_sipser_mt_ws, 2, 2, choice, nullptr),
               std::invalid_argument);
  choice[0] = kNil;
  choice[2] = 3;  // column -> column
  EXPECT_THROW((void)run_ws(karp_sipser_mt_ws, 2, 2, choice, nullptr),
               std::invalid_argument);
  choice[2] = 7;  // out of range entirely
  EXPECT_THROW((void)run_ws(karp_sipser_mt_ws, 2, 2, choice, nullptr),
               std::invalid_argument);
}

TEST(KarpSipserMT, UnifyChoicesValidatesRanges) {
  const std::vector<vid_t> bad_row = {5};   // column 5 does not exist
  const std::vector<vid_t> ok_col = {kNil};
  EXPECT_THROW((void)run_ws(unify_choices, 1, 1, bad_row, ok_col), std::out_of_range);
  const std::vector<vid_t> ok_row = {0};
  const std::vector<vid_t> bad_col = {3};   // row 3 does not exist
  EXPECT_THROW((void)run_ws(unify_choices, 1, 1, ok_row, bad_col), std::out_of_range);
}

TEST(KarpSipserMT, PureCycleResolvedEntirelyInPhase2) {
  // rows 0..3, cols 4..7 forming one 8-cycle; no degree-one vertex exists,
  // so Phase 1 must match nothing and Phase 2 must match everything.
  std::vector<vid_t> choice(8);
  choice[0] = 4;
  choice[4] = 1;
  choice[1] = 5;
  choice[5] = 2;
  choice[2] = 6;
  choice[6] = 3;
  choice[3] = 7;
  choice[7] = 0;
  KarpSipserMTStats stats;
  const Matching m = run_ws(karp_sipser_mt_ws, 4, 4, choice, &stats);
  EXPECT_EQ(m.cardinality(), 4);
  EXPECT_EQ(stats.phase1_matches, 0);
  EXPECT_EQ(stats.phase2_matches, 4);
}

TEST(KarpSipserMT, PureChainResolvedEntirelyInPhase1) {
  // r0 -> c0, c0 -> r1, r1 -> c1, c1 -> r1 (reciprocal at the end).
  std::vector<vid_t> choice(4);
  const vid_t m_rows = 2;
  choice[0] = m_rows + 0;  // r0 -> c0
  choice[2] = 1;           // c0 -> r1
  choice[1] = m_rows + 1;  // r1 -> c1
  choice[3] = 1;           // c1 -> r1 (in-one)
  KarpSipserMTStats stats;
  const Matching m = run_ws(karp_sipser_mt_ws, 2, 2, choice, &stats);
  EXPECT_EQ(m.cardinality(), 2);
  EXPECT_EQ(stats.phase2_matches, 0);
}

TEST(KarpSipserMT, ReciprocalCliqueReachedFromBothSidesCountsOnce) {
  // Regression test for a benign race: a reciprocal 2-clique {x, y} whose
  // two endpoints both become out-one can be consumed by two threads at
  // once (both CAS different locations and write the same pair). The
  // matching is unaffected, but the phase statistics must not double-count
  // the pair. Structure: two out-one tails feeding the two sides of a
  // reciprocal pair:  t1 -> x,  t2 -> y,  x <-> y.
  //
  // Unified ids: rows {t1=0, x=1}, columns {t2=2 -> local 0, y=3 -> 1}.
  std::vector<vid_t> choice(4, kNil);
  choice[0] = 3;  // row t1 chooses column y
  choice[1] = 3;  // row x chooses column y  (x <-> y reciprocal)
  choice[3] = 1;  // column y chooses row x
  choice[2] = 1;  // column t2 chooses row x
  for (int rep = 0; rep < 50; ++rep) {
    KarpSipserMTStats stats;
    const Matching m = run_ws(karp_sipser_mt_ws, 2, 2, choice, &stats);
    EXPECT_EQ(stats.phase1_matches + stats.phase2_matches, m.cardinality()) << rep;
    // The component is a path t1 - y - x - t2 plus the reciprocal edge;
    // its maximum matching has 2 pairs.
    EXPECT_EQ(m.cardinality(), 2) << rep;
  }
}

TEST(KarpSipserMT, StatsSumUnderHeavyRepetition) {
  // Stress the counting under real parallel schedules on a large random
  // instance (the configuration above occurs organically here).
  const BipartiteGraph g = make_erdos_renyi(2000, 2000, 8000, 3);
  const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{});
  const TwoSidedChoices ch = run_ws(sample_two_sided_choices_ws, g, s, 5);
  const std::vector<vid_t> choice =
      run_ws(unify_choices, g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
  for (int rep = 0; rep < 30; ++rep) {
    KarpSipserMTStats stats;
    const Matching m =
        run_ws(karp_sipser_mt_ws, g.num_rows(), g.num_cols(), choice, &stats);
    ASSERT_EQ(stats.phase1_matches + stats.phase2_matches, m.cardinality()) << rep;
  }
}

TEST(KarpSipserMT, StatsSumToCardinality) {
  const BipartiteGraph g = make_erdos_renyi(2000, 2000, 8000, 3);
  const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{});
  const TwoSidedChoices ch = run_ws(sample_two_sided_choices_ws, g, s, 5);
  const std::vector<vid_t> choice =
      run_ws(unify_choices, g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
  KarpSipserMTStats stats;
  const Matching m = run_ws(karp_sipser_mt_ws, g.num_rows(), g.num_cols(), choice, &stats);
  EXPECT_EQ(stats.phase1_matches + stats.phase2_matches, m.cardinality());
}

/// The heart of the exactness claim, swept over instance families, seeds
/// and thread counts: KarpSipserMT's cardinality equals Hopcroft-Karp's on
/// the materialized choice subgraph.
class KsmtExactnessTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(KsmtExactnessTest, MatchesExactSolverOnChoiceSubgraphs) {
  const auto [threads, seed] = GetParam();
  ThreadCountGuard guard(threads);

  struct Case {
    BipartiteGraph g;
    const char* name;
  };
  std::vector<Case> cases;
  cases.push_back({make_erdos_renyi(1500, 1500, 6000, seed), "er"});
  cases.push_back({make_erdos_renyi(900, 1100, 3500, seed + 1), "rect"});
  cases.push_back({make_planted_perfect(1200, 3, seed + 2), "planted"});
  cases.push_back({make_ks_adversarial(256, 8), "adversarial"});
  cases.push_back({make_road_like(2000, 0.1, 0.05, seed + 3), "road"});

  for (const auto& c : cases) {
    const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, c.g, ScalingOptions{5, 0.0});
    const TwoSidedChoices ch = run_ws(sample_two_sided_choices_ws, c.g, s, seed + 7);
    const std::vector<vid_t> choice =
        run_ws(unify_choices, c.g.num_rows(), c.g.num_cols(), ch.rchoice, ch.cchoice);

    const Matching m =
        run_ws(karp_sipser_mt_ws, c.g.num_rows(), c.g.num_cols(), choice, nullptr);
    const BipartiteGraph sub =
        materialize_choice_graph(c.g.num_rows(), c.g.num_cols(), ch.rchoice, ch.cchoice);
    testing::expect_valid(sub, m, c.name);
    EXPECT_EQ(m.cardinality(), run_ws(sprank_ws, sub))
        << c.name << " threads=" << threads << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadsAndSeeds, KsmtExactnessTest,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(0ULL, 1ULL, 2ULL, 3ULL)));

TEST(KarpSipserMT, CardinalityIndependentOfThreadCount) {
  const BipartiteGraph g = make_erdos_renyi(5000, 5000, 20000, 9);
  const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{});
  const TwoSidedChoices ch = run_ws(sample_two_sided_choices_ws, g, s, 11);
  const std::vector<vid_t> choice =
      run_ws(unify_choices, g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);

  vid_t reference = -1;
  for (const int threads : {1, 2, 4, 8, 16}) {
    ThreadCountGuard guard(threads);
    const Matching m = run_ws(karp_sipser_mt_ws, g.num_rows(), g.num_cols(), choice, nullptr);
    const vid_t card = m.cardinality();
    if (reference < 0) reference = card;
    EXPECT_EQ(card, reference) << "threads=" << threads;
  }
}

TEST(KarpSipserMT, MatchPinnedAcrossVersions) {
  // Golden values captured before the bipartite and undirected kernels
  // shared one out-one chain phase. Phase 1's races may pair different
  // vertices on several threads, so the matching and the phase split are
  // pinned at one thread and the cardinality at every count.
  const BipartiteGraph er = make_erdos_renyi(1 << 14, 1 << 14, 8 << 14, 11);
  const BipartiteGraph planted = make_planted_perfect(1 << 14, 7, 13);
  const BipartiteGraph sparse = make_erdos_renyi(4096, 5000, 4096, 14);
  struct Pin {
    const BipartiteGraph* g;
    std::uint64_t seed;
    std::uint64_t row_match_fingerprint;
    KarpSipserMTStats stats;
  };
  const Pin pins[] = {
      {&er, 1, 0x89d267bbcb63d0e4ull, {13731, 598}},
      {&er, 2, 0x9a96e50dd39f1d84ull, {13726, 627}},
      {&er, 3, 0x9b58597ec9f92dabull, {13741, 604}},
      {&planted, 1, 0xa5af6df09548018dull, {13822, 428}},
      {&planted, 2, 0x08300482b1c19862ull, {13857, 392}},
      {&planted, 3, 0x02289c9b09efeb1full, {13888, 425}},
      {&sparse, 1, 0x4dcadfa8fb3978cfull, {938, 1379}},
      {&sparse, 2, 0xca82937c2b6fd630ull, {925, 1396}},
      {&sparse, 3, 0x7ad58f9c9d6e8470ull, {939, 1381}},
  };
  for (const Pin& pin : pins) {
    const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, *pin.g, ScalingOptions{5, 0.0});
    const TwoSidedChoices ch = run_ws(sample_two_sided_choices_ws, *pin.g, s, pin.seed);
    const std::vector<vid_t> choice =
        run_ws(unify_choices, pin.g->num_rows(), pin.g->num_cols(), ch.rchoice, ch.cchoice);
    KarpSipserMTStats stats;
    const Matching m =
        run_ws(karp_sipser_mt_ws, pin.g->num_rows(), pin.g->num_cols(), choice, &stats);
    const std::string where = "edges " + std::to_string(pin.g->num_edges()) + ", seed " +
                              std::to_string(pin.seed);
    if (max_threads() == 1) {
      EXPECT_EQ(testing::bit_fingerprint(m.row_match), pin.row_match_fingerprint) << where;
      EXPECT_EQ(stats.phase1_matches, pin.stats.phase1_matches) << where;
    }
    EXPECT_EQ(m.cardinality(),
              pin.stats.phase1_matches + pin.stats.phase2_matches) << where;
  }
}

TEST(KarpSipserMT, RepeatedParallelRunsStayExact) {
  // Stress the Phase-1 races: many repetitions on the same instance at max
  // threads must all remain exact and valid.
  const BipartiteGraph g = make_erdos_renyi(3000, 3000, 9000, 21);
  const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{});
  const TwoSidedChoices ch = run_ws(sample_two_sided_choices_ws, g, s, 13);
  const std::vector<vid_t> choice =
      run_ws(unify_choices, g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
  const BipartiteGraph sub =
      materialize_choice_graph(g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
  const vid_t exact = run_ws(sprank_ws, sub);
  for (int rep = 0; rep < 20; ++rep) {
    const Matching m =
        run_ws(karp_sipser_mt_ws, g.num_rows(), g.num_cols(), choice, nullptr);
    testing::expect_valid(sub, m, "stress");
    EXPECT_EQ(m.cardinality(), exact) << "rep " << rep;
  }
}

} // namespace
} // namespace bmh
