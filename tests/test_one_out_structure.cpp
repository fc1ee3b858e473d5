/// Tests for the choice-subgraph structure analysis: Lemma 1 (at most one
/// cycle per component) across families, seeds and scaling levels.

#include <gtest/gtest.h>

#include "analysis/one_out_structure.hpp"
#include "core/two_sided.hpp"
#include "graph/generators.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

using testing::run_ws;

TEST(ChoiceStructure, SingleReciprocalPairIsOneEdge) {
  // r0 <-> c0 reciprocal; a 2-vertex component with exactly 1 edge (tree).
  std::vector<vid_t> choice = {1, 0};
  const ChoiceGraphStructure s = analyze_choice_graph(1, 1, choice);
  EXPECT_EQ(s.num_components, 1);
  EXPECT_EQ(s.num_edges, 1);
  EXPECT_EQ(s.num_tree_components, 1);
  EXPECT_TRUE(s.lemma1_holds);
}

TEST(ChoiceStructure, PureCycleDetected) {
  // 4-cycle: r0->c0->r1->c1->r0.
  std::vector<vid_t> choice(4);
  choice[0] = 2;
  choice[2] = 1;
  choice[1] = 3;
  choice[3] = 0;
  const ChoiceGraphStructure s = analyze_choice_graph(2, 2, choice);
  EXPECT_EQ(s.num_components, 1);
  EXPECT_EQ(s.num_unicyclic, 1);
  EXPECT_EQ(s.num_edges, 4);
  EXPECT_TRUE(s.lemma1_holds);
}

TEST(ChoiceStructure, SingletonsCounted) {
  std::vector<vid_t> choice = {kNil, kNil, kNil, kNil};
  const ChoiceGraphStructure s = analyze_choice_graph(2, 2, choice);
  EXPECT_EQ(s.num_components, 4);
  EXPECT_EQ(s.num_singletons, 4);
  EXPECT_EQ(s.num_edges, 0);
  EXPECT_TRUE(s.lemma1_holds);
}

TEST(ChoiceStructure, SizeMismatchThrows) {
  std::vector<vid_t> choice = {kNil};
  EXPECT_THROW((void)analyze_choice_graph(2, 2, choice), std::invalid_argument);
}

class Lemma1Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma1Test, HoldsAcrossFamiliesAndSeeds) {
  const std::uint64_t seed = GetParam();
  std::vector<BipartiteGraph> graphs;
  graphs.push_back(make_erdos_renyi(2000, 2000, 8000, seed));
  graphs.push_back(make_erdos_renyi(1500, 1800, 5000, seed + 1));
  graphs.push_back(make_planted_perfect(2000, 4, seed + 2));
  graphs.push_back(make_full(300));
  graphs.push_back(make_ks_adversarial(256, 8));

  for (const auto& g : graphs) {
    const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{3, 0.0});
    const TwoSidedChoices ch = run_ws(sample_two_sided_choices_ws, g, s, seed + 5);
    const std::vector<vid_t> choice =
        run_ws(unify_choices, g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
    const ChoiceGraphStructure st =
        analyze_choice_graph(g.num_rows(), g.num_cols(), choice);
    EXPECT_TRUE(st.lemma1_holds);
    EXPECT_EQ(st.num_vertices, g.num_rows() + g.num_cols());
    // Each side contributes at most one edge per vertex.
    EXPECT_LE(st.num_edges, static_cast<eid_t>(g.num_rows()) + g.num_cols());
    // Component taxonomy is exhaustive.
    EXPECT_EQ(st.num_components,
              st.num_singletons + st.num_tree_components + st.num_unicyclic);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Test, ::testing::Range<std::uint64_t>(0, 6));

TEST(MaterializeChoiceGraph, ContainsExactlyTheChosenEdges) {
  const BipartiteGraph g = make_erdos_renyi(300, 300, 1500, 3);
  const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{});
  const TwoSidedChoices ch = run_ws(sample_two_sided_choices_ws, g, s, 7);
  const BipartiteGraph sub =
      materialize_choice_graph(g.num_rows(), g.num_cols(), ch.rchoice, ch.cchoice);
  EXPECT_EQ(sub.num_rows(), g.num_rows());
  EXPECT_EQ(sub.num_cols(), g.num_cols());
  // Every subgraph edge is either a row choice or a column choice.
  for (vid_t i = 0; i < sub.num_rows(); ++i)
    for (const vid_t j : sub.row_neighbors(i))
      EXPECT_TRUE(ch.rchoice[static_cast<std::size_t>(i)] == j ||
                  ch.cchoice[static_cast<std::size_t>(j)] == i);
  // And the subgraph is a subgraph of g.
  for (vid_t i = 0; i < sub.num_rows(); ++i)
    for (const vid_t j : sub.row_neighbors(i)) EXPECT_TRUE(g.has_edge(i, j));
}

TEST(MaterializeChoiceGraph, ReciprocalPicksCollapse) {
  std::vector<vid_t> rchoice = {0};
  std::vector<vid_t> cchoice = {0};
  const BipartiteGraph sub = materialize_choice_graph(1, 1, rchoice, cchoice);
  EXPECT_EQ(sub.num_edges(), 1);
}

TEST(OneOutGraph, StructureMatchesWalkupModel) {
  // A pure 1-out graph (rows only choose): components are trees or
  // unicyclic, never more.
  const BipartiteGraph g = make_one_out(20000, 13);
  std::vector<vid_t> rchoice(20000), cchoice(20000, kNil);
  for (vid_t i = 0; i < 20000; ++i) rchoice[static_cast<std::size_t>(i)] = g.row_neighbors(i)[0];
  const std::vector<vid_t> choice = run_ws(unify_choices, 20000, 20000, rchoice, cchoice);
  const ChoiceGraphStructure s = analyze_choice_graph(20000, 20000, choice);
  EXPECT_TRUE(s.lemma1_holds);
  EXPECT_EQ(s.num_edges, 20000);
}

} // namespace
} // namespace bmh
