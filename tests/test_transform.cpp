/// Tests for graph transforms: permutations (with matching/sprank/quality
/// invariance) and induced subgraphs (with DM-block extraction).

#include <gtest/gtest.h>

#include <numeric>

#include "analysis/dulmage_mendelsohn.hpp"
#include "core/one_sided.hpp"
#include "core/two_sided.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/push_relabel.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

TEST(Permute, IdentityIsNoop) {
  const BipartiteGraph g = make_erdos_renyi(50, 60, 300, 1);
  std::vector<vid_t> id_r(50), id_c(60);
  std::iota(id_r.begin(), id_r.end(), 0);
  std::iota(id_c.begin(), id_c.end(), 0);
  EXPECT_TRUE(permuted(g, id_r, id_c).structurally_equal(g));
}

TEST(Permute, EdgesFollowThePermutation) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  const BipartiteGraph p = permuted(g, {1, 0}, {0, 1});
  EXPECT_TRUE(p.has_edge(1, 0));
  EXPECT_TRUE(p.has_edge(0, 1));
  EXPECT_FALSE(p.has_edge(0, 0));
}

TEST(Permute, RejectsNonPermutations) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  EXPECT_THROW((void)permuted(g, {0, 0}, {0, 1}), std::invalid_argument);
  EXPECT_THROW((void)permuted(g, {0}, {0, 1}), std::invalid_argument);
  EXPECT_THROW((void)permuted(g, {0, 2}, {0, 1}), std::invalid_argument);
}

TEST(Permute, SprankIsInvariant) {
  const BipartiteGraph g = make_erdos_renyi(400, 400, 1200, 7);
  const BipartiteGraph p =
      permuted(g, make_permutation(400, 1), make_permutation(400, 2));
  EXPECT_EQ(sprank(g), sprank(p));
}

TEST(Permute, HeuristicQualityDistributionUnchanged) {
  // The heuristics must behave identically in distribution on permuted
  // inputs; compare mean cardinalities over several seeds with slack.
  const vid_t n = 2000;
  const BipartiteGraph g = make_planted_perfect(n, 3, 5);
  const BipartiteGraph p = permuted(g, make_permutation(n, 11), make_permutation(n, 12));
  double mean_g = 0.0, mean_p = 0.0;
  constexpr int kRuns = 8;
  for (int r = 0; r < kRuns; ++r) {
    mean_g += two_sided_match(g, 5, static_cast<std::uint64_t>(r)).cardinality();
    mean_p += two_sided_match(p, 5, static_cast<std::uint64_t>(r)).cardinality();
  }
  mean_g /= kRuns * static_cast<double>(n);
  mean_p /= kRuns * static_cast<double>(n);
  EXPECT_NEAR(mean_g, mean_p, 0.01);
}

TEST(MakePermutation, IsAValidPermutationAndDeterministic) {
  const std::vector<vid_t> p = make_permutation(100, 3);
  std::vector<bool> seen(100, false);
  for (const vid_t v : p) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
  EXPECT_EQ(p, make_permutation(100, 3));
  EXPECT_NE(p, make_permutation(100, 4));
}

TEST(InducedSubgraph, KeepsExactlyTheRequestedPart) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{0, 1}, {1, 2}, {0, 2}});
  const BipartiteGraph sub =
      induced_subgraph(g, {true, false, true}, {true, true, false});
  EXPECT_EQ(sub.num_rows(), 2);
  EXPECT_EQ(sub.num_cols(), 2);
  // Kept: row0 (new 0) with cols {0,1}; row2 (new 1) with col {0}.
  EXPECT_TRUE(sub.has_edge(0, 0));
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_TRUE(sub.has_edge(1, 0));
  EXPECT_EQ(sub.num_edges(), 3);
}

TEST(InducedSubgraph, MapsReportRenumbering) {
  const BipartiteGraph g = graph_from_rows(3, 2, {{0}, {1}, {0}});
  std::vector<vid_t> rmap, cmap;
  (void)induced_subgraph(g, {false, true, true}, {true, true}, &rmap, &cmap);
  EXPECT_EQ(rmap, (std::vector<vid_t>{kNil, 0, 1}));
  EXPECT_EQ(cmap, (std::vector<vid_t>{0, 1}));
}

TEST(InducedSubgraph, MaskSizeMismatchThrows) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  EXPECT_THROW((void)induced_subgraph(g, {true}, {true, true}), std::invalid_argument);
}

TEST(ExtractPart, DmBlocksHaveTheirDocumentedProperties) {
  const BipartiteGraph g = make_dm_structured(15, 25, 30, 28, 18, 2, 3);
  const DmDecomposition dm = dulmage_mendelsohn(g, hopcroft_karp(g));

  // H block: wide, row-perfect matching.
  const BipartiteGraph h = extract_part(g, dm.row_part, dm.col_part, DmPart::Horizontal);
  EXPECT_GT(h.num_cols(), h.num_rows());
  EXPECT_EQ(sprank(h), h.num_rows());

  // S block: square with a perfect matching.
  const BipartiteGraph s = extract_part(g, dm.row_part, dm.col_part, DmPart::Square);
  EXPECT_EQ(s.num_rows(), s.num_cols());
  EXPECT_EQ(sprank(s), s.num_rows());

  // V block: tall, column-perfect matching.
  const BipartiteGraph v = extract_part(g, dm.row_part, dm.col_part, DmPart::Vertical);
  EXPECT_GT(v.num_rows(), v.num_cols());
  EXPECT_EQ(sprank(v), v.num_cols());
}

} // namespace
} // namespace bmh
