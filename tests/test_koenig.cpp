/// Tests for König certification: cover construction, duality, and
/// cross-validation of every exact solver against the certificate.

#include <gtest/gtest.h>

#include "analysis/koenig.hpp"
#include "core/two_sided.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/karp_sipser.hpp"
#include "matching/mc21.hpp"
#include "matching/push_relabel.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

using namespace testing;

TEST(Koenig, CoverOfMaximumMatchingHasMatchingSize) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const BipartiteGraph g = make_erdos_renyi(400, 450, 2000, seed);
    const Matching m = run_ws(hopcroft_karp_ws, g);
    const VertexCover c = koenig_cover(g, m);
    EXPECT_TRUE(is_vertex_cover(g, c)) << seed;
    EXPECT_EQ(c.size(), m.cardinality()) << seed;
  }
}

TEST(Koenig, DetectsNonMaximumMatchings) {
  // An empty matching on a non-empty graph is never maximum.
  const BipartiteGraph g = make_full(5);
  EXPECT_FALSE(is_maximum_matching(g, Matching(5, 5)));
  // A maximal-but-not-maximum matching: star clash graph where greedy can
  // pick the center edge suboptimally.
  const BipartiteGraph path = graph_from_rows(2, 2, {{0, 1}, {0}});
  Matching bad(2, 2);
  bad.match(0, 0);  // blocks row 1; maximum is 2 via (0,1),(1,0)
  EXPECT_TRUE(is_valid_matching(path, bad));
  EXPECT_FALSE(is_maximum_matching(path, bad));
}

TEST(Koenig, CertifiesAllExactSolvers) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const BipartiteGraph g = make_erdos_renyi(600, 600, 2500, seed + 40);
    EXPECT_TRUE(is_maximum_matching(g, run_ws(hopcroft_karp_ws, g))) << "hk " << seed;
    EXPECT_TRUE(is_maximum_matching(g, run_ws(mc21_ws, g))) << "mc21 " << seed;
    EXPECT_TRUE(is_maximum_matching(g, run_ws(push_relabel_ws, g))) << "pr " << seed;
  }
}

TEST(Koenig, HeuristicsAreUsuallyNotMaximum) {
  // Sanity check of the detector's discriminative power: the 1/2-greedy on
  // a structured instance should generally NOT be maximum.
  const BipartiteGraph g = make_ks_adversarial(256, 16);
  int non_max = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed)
    if (!is_maximum_matching(g, run_ws(match_random_edges_ws, g, seed))) ++non_max;
  EXPECT_GT(non_max, 0);
}

TEST(Koenig, CertifiesKarpSipserMTOnChoiceSubgraphs) {
  // An alternative (certificate-based) proof of the Lemma 1-3 exactness
  // property that does not rely on comparing against another solver.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const BipartiteGraph g = make_erdos_renyi(2000, 2000, 8000, seed);
    const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{3, 0.0});
    const TwoSidedChoices ch = run_ws(sample_two_sided_choices_ws, g, s, seed + 3);
    const std::vector<vid_t> choice =
        run_ws(unify_choices, g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
    const Matching m =
        run_ws(karp_sipser_mt_ws, g.num_rows(), g.num_cols(), choice, nullptr);
    const BipartiteGraph sub =
        materialize_choice_graph(g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
    EXPECT_TRUE(is_maximum_matching(sub, m)) << seed;
  }
}

TEST(Koenig, ZooCertificates) {
  for (const auto& g : testing::small_graph_zoo()) {
    const Matching m = run_ws(hopcroft_karp_ws, g);
    EXPECT_TRUE(is_maximum_matching(g, m));
    const VertexCover c = koenig_cover(g, m);
    EXPECT_EQ(c.size(), testing::brute_force_max_matching(g));
  }
}

TEST(Koenig, EmptyGraphTrivia) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{}, {}});
  const Matching m(2, 2);
  EXPECT_TRUE(is_maximum_matching(g, m));
  EXPECT_EQ(koenig_cover(g, m).size(), 0);
}

TEST(Koenig, WeakDualityHolds) {
  // Any cover is at least any matching, even non-optimal pairs.
  const BipartiteGraph g = make_erdos_renyi(300, 300, 1200, 9);
  const Matching heur = run_ws(karp_sipser_ws, g, 3, nullptr);
  const Matching best = run_ws(hopcroft_karp_ws, g);
  const VertexCover c = koenig_cover(g, best);
  EXPECT_GE(c.size(), heur.cardinality());
}

} // namespace
} // namespace bmh
