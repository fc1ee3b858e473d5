/// Tests for the choice-subgraph structure analysis: Lemma 1 (at most one
/// cycle per component) across families, seeds and scaling levels.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "analysis/one_out_structure.hpp"
#include "core/two_sided.hpp"
#include "graph/generators.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

using namespace testing;

/// Lemma 1 of the paper: every connected component of the "1-out ∪ 1-in"
/// graph built from the row and column choices contains at most one simple
/// cycle (a component with n' vertices has at most n' edges). This is the
/// precondition under which KarpSipserMT is exact.
struct ChoiceGraphStructure {
  vid_t num_vertices = 0;        ///< m + n
  vid_t num_components = 0;      ///< including singletons
  vid_t num_singletons = 0;      ///< isolated vertices (no incident choice)
  vid_t num_tree_components = 0; ///< edges = vertices - 1 (no cycle)
  vid_t num_unicyclic = 0;       ///< edges = vertices (exactly one cycle)
  vid_t max_component_size = 0;
  eid_t num_edges = 0;           ///< distinct edges (reciprocal picks merge)
  bool lemma1_holds = false;     ///< edges <= vertices in every component
};

/// Union–find with path halving.
class DisjointSets {
public:
  explicit DisjointSets(vid_t n) : parent_(static_cast<std::size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  vid_t find(vid_t x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }

  void unite(vid_t a, vid_t b) { parent_[static_cast<std::size_t>(find(a))] = find(b); }

private:
  std::vector<vid_t> parent_;
};

/// Classifies the components of the implicit graph {{u, choice[u]}} over
/// unified ids (rows [0, m), columns [m, m+n)); kNil entries contribute no
/// edge.
[[nodiscard]] ChoiceGraphStructure analyze_choice_graph(vid_t m, vid_t n,
                                                        std::span<const vid_t> choice) {
  const vid_t total = m + n;
  if (choice.size() != static_cast<std::size_t>(total))
    throw std::invalid_argument("analyze_choice_graph: choice size mismatch");

  ChoiceGraphStructure s;
  s.num_vertices = total;

  DisjointSets ds(total);
  for (vid_t u = 0; u < total; ++u) {
    const vid_t v = choice[static_cast<std::size_t>(u)];
    if (v != kNil) ds.unite(u, v);
  }

  // Count distinct edges per component; a reciprocal pair (u chose v and v
  // chose u) is one edge, counted once via the u < v tie-break.
  std::vector<vid_t> comp_vertices(static_cast<std::size_t>(total), 0);
  std::vector<vid_t> comp_edges(static_cast<std::size_t>(total), 0);
  std::vector<bool> comp_has_vertex_with_edge(static_cast<std::size_t>(total), false);
  for (vid_t u = 0; u < total; ++u) {
    const vid_t root = ds.find(u);
    ++comp_vertices[static_cast<std::size_t>(root)];
    const vid_t v = choice[static_cast<std::size_t>(u)];
    if (v == kNil) continue;
    comp_has_vertex_with_edge[static_cast<std::size_t>(root)] = true;
    const bool reciprocal = choice[static_cast<std::size_t>(v)] == u;
    if (!reciprocal || u < v) ++comp_edges[static_cast<std::size_t>(root)];
  }

  s.lemma1_holds = true;
  for (vid_t r = 0; r < total; ++r) {
    const vid_t verts = comp_vertices[static_cast<std::size_t>(r)];
    if (verts == 0) continue;  // r is not a root representative
    ++s.num_components;
    s.max_component_size = std::max(s.max_component_size, verts);
    const vid_t edges = comp_edges[static_cast<std::size_t>(r)];
    s.num_edges += edges;
    if (verts == 1 && !comp_has_vertex_with_edge[static_cast<std::size_t>(r)]) {
      ++s.num_singletons;
    } else if (edges == verts - 1) {
      ++s.num_tree_components;
    } else if (edges == verts) {
      ++s.num_unicyclic;
    } else {
      s.lemma1_holds = false;  // would contradict Lemma 1
    }
  }
  return s;
}

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
    for (const vid_t j : sub.row_neighbors(i)) EXPECT_TRUE(has_edge(g, i, j));
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
