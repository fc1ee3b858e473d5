/// Tests for graph transforms: permutations (with matching/sprank/quality
/// invariance) and induced subgraphs (with DM-block extraction).

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/dulmage_mendelsohn.hpp"
#include "core/one_sided.hpp"
#include "core/two_sided.hpp"
#include "graph/generators.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/push_relabel.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

using namespace testing;

/// Throws std::invalid_argument unless `p` is a permutation of {0..n-1}.
void check_permutation(const std::vector<vid_t>& p, vid_t n, const char* what) {
  if (p.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument(std::string(what) + ": size mismatch");
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (const vid_t v : p) {
    if (v < 0 || v >= n || seen[static_cast<std::size_t>(v)])
      throw std::invalid_argument(std::string(what) + ": not a permutation");
    seen[static_cast<std::size_t>(v)] = true;
  }
}

/// The graph with row i renamed row_perm[i] and column j renamed
/// col_perm[j]. Both arguments must be permutations of their index ranges.
[[nodiscard]] BipartiteGraph permuted(const BipartiteGraph& g,
                                      const std::vector<vid_t>& row_perm,
                                      const std::vector<vid_t>& col_perm) {
  check_permutation(row_perm, g.num_rows(), "permuted(row_perm)");
  check_permutation(col_perm, g.num_cols(), "permuted(col_perm)");
  GraphBuilder b(g.num_rows(), g.num_cols());
  b.reserve(static_cast<std::size_t>(g.num_edges()));
  for (vid_t i = 0; i < g.num_rows(); ++i)
    for (const vid_t j : g.row_neighbors(i))
      b.add_edge(row_perm[static_cast<std::size_t>(i)],
                 col_perm[static_cast<std::size_t>(j)]);
  return b.build();
}

/// Random permutation of {0..n-1}, deterministic in the seed.
[[nodiscard]] std::vector<vid_t> make_permutation(vid_t n, std::uint64_t seed) {
  std::vector<vid_t> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  Rng rng(seed);
  for (vid_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return p;
}

/// The subgraph induced by keeping rows with keep_row[i] and columns with
/// keep_col[j]; kept vertices are renumbered densely in original order.
/// The mapping old-id -> new-id is returned through the optional out
/// parameters (kNil for dropped vertices).
[[nodiscard]] BipartiteGraph induced_subgraph(const BipartiteGraph& g,
                                              const std::vector<bool>& keep_row,
                                              const std::vector<bool>& keep_col,
                                              std::vector<vid_t>* row_map = nullptr,
                                              std::vector<vid_t>* col_map = nullptr) {
  if (keep_row.size() != static_cast<std::size_t>(g.num_rows()) ||
      keep_col.size() != static_cast<std::size_t>(g.num_cols()))
    throw std::invalid_argument("induced_subgraph: mask size mismatch");

  std::vector<vid_t> rmap(static_cast<std::size_t>(g.num_rows()), kNil);
  std::vector<vid_t> cmap(static_cast<std::size_t>(g.num_cols()), kNil);
  vid_t new_rows = 0, new_cols = 0;
  for (vid_t i = 0; i < g.num_rows(); ++i)
    if (keep_row[static_cast<std::size_t>(i)]) rmap[static_cast<std::size_t>(i)] = new_rows++;
  for (vid_t j = 0; j < g.num_cols(); ++j)
    if (keep_col[static_cast<std::size_t>(j)]) cmap[static_cast<std::size_t>(j)] = new_cols++;

  GraphBuilder b(new_rows, new_cols);
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    if (rmap[static_cast<std::size_t>(i)] == kNil) continue;
    for (const vid_t j : g.row_neighbors(i))
      if (cmap[static_cast<std::size_t>(j)] != kNil)
        b.add_edge(rmap[static_cast<std::size_t>(i)], cmap[static_cast<std::size_t>(j)]);
  }
  if (row_map != nullptr) *row_map = std::move(rmap);
  if (col_map != nullptr) *col_map = std::move(cmap);
  return b.build();
}

/// One labeled part (a coarse Dulmage–Mendelsohn block, say) as a
/// standalone graph.
template <typename Label>
[[nodiscard]] BipartiteGraph extract_part(const BipartiteGraph& g,
                                          const std::vector<Label>& row_label,
                                          const std::vector<Label>& col_label,
                                          Label wanted) {
  std::vector<bool> keep_row(row_label.size()), keep_col(col_label.size());
  for (std::size_t i = 0; i < row_label.size(); ++i) keep_row[i] = row_label[i] == wanted;
  for (std::size_t j = 0; j < col_label.size(); ++j) keep_col[j] = col_label[j] == wanted;
  return induced_subgraph(g, keep_row, keep_col);
}

TEST(Permute, IdentityIsNoop) {
  const BipartiteGraph g = make_erdos_renyi(50, 60, 300, 1);
  std::vector<vid_t> id_r(50), id_c(60);
  std::iota(id_r.begin(), id_r.end(), 0);
  std::iota(id_c.begin(), id_c.end(), 0);
  EXPECT_TRUE(structurally_equal(permuted(g, id_r, id_c), g));
}

TEST(Permute, EdgesFollowThePermutation) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  const BipartiteGraph p = permuted(g, {1, 0}, {0, 1});
  EXPECT_TRUE(has_edge(p, 1, 0));
  EXPECT_TRUE(has_edge(p, 0, 1));
  EXPECT_FALSE(has_edge(p, 0, 0));
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
  EXPECT_EQ(run_ws(sprank_ws, g), run_ws(sprank_ws, p));
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
    const auto seed = static_cast<std::uint64_t>(r);
    mean_g += run_ws(two_sided_match_ws, g, 5, seed, nullptr).cardinality();
    mean_p += run_ws(two_sided_match_ws, p, 5, seed, nullptr).cardinality();
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
  EXPECT_TRUE(has_edge(sub, 0, 0));
  EXPECT_TRUE(has_edge(sub, 0, 1));
  EXPECT_TRUE(has_edge(sub, 1, 0));
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
  const DmDecomposition dm = dulmage_mendelsohn(g, run_ws(hopcroft_karp_ws, g));

  // H block: wide, row-perfect matching.
  const BipartiteGraph h = extract_part(g, dm.row_part, dm.col_part, DmPart::Horizontal);
  EXPECT_GT(h.num_cols(), h.num_rows());
  EXPECT_EQ(run_ws(sprank_ws, h), h.num_rows());

  // S block: square with a perfect matching.
  const BipartiteGraph s = extract_part(g, dm.row_part, dm.col_part, DmPart::Square);
  EXPECT_EQ(s.num_rows(), s.num_cols());
  EXPECT_EQ(run_ws(sprank_ws, s), s.num_rows());

  // V block: tall, column-perfect matching.
  const BipartiteGraph v = extract_part(g, dm.row_part, dm.col_part, DmPart::Vertical);
  EXPECT_GT(v.num_rows(), v.num_cols());
  EXPECT_EQ(run_ws(sprank_ws, v), v.num_cols());
}

} // namespace
} // namespace bmh
