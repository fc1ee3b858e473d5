/// Tests for the Matching value type and validity machinery.

#include <gtest/gtest.h>

#include <string>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/matching.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

TEST(Matching, FreshMatchingIsEmptyAndValid) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{0}, {1}, {2}});
  const Matching m(3, 3);
  EXPECT_EQ(m.cardinality(), 0);
  EXPECT_TRUE(is_valid_matching(g, m));
}

TEST(Matching, MatchUpdatesBothViews) {
  Matching m(2, 2);
  m.match(0, 1);
  EXPECT_TRUE(m.row_matched(0));
  EXPECT_TRUE(m.col_matched(1));
  EXPECT_FALSE(m.row_matched(1));
  EXPECT_EQ(m.cardinality(), 1);
}

TEST(Matching, ValidityRejectsInconsistentViews) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0, 1}, {0, 1}});
  Matching m(2, 2);
  m.row_match[0] = 1;  // col_match[1] not updated
  const std::string why = describe_matching_violation(g, m);
  EXPECT_FALSE(why.empty());
  EXPECT_NE(why.find("col_match"), std::string::npos);
}

TEST(Matching, ValidityRejectsNonEdgePairs) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  Matching m(2, 2);
  m.match(0, 1);  // (0,1) is not an edge
  EXPECT_FALSE(is_valid_matching(g, m));
  EXPECT_NE(describe_matching_violation(g, m).find("not an edge"), std::string::npos);
}

TEST(Matching, ValidityRejectsSizeMismatch) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  const Matching m(3, 2);
  EXPECT_FALSE(is_valid_matching(g, m));
}

TEST(Matching, ValidityRejectsOutOfRangePartner) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  Matching m(2, 2);
  m.row_match[0] = 7;
  EXPECT_FALSE(is_valid_matching(g, m));
}

TEST(Matching, ValidityAgreesWithDescribeAtScale) {
  // is_valid_matching() runs its checks as parallel loops; it must agree
  // with the serial describe_matching_violation() on every violation kind,
  // wherever it sits. Each kind is planted at the first, middle and last
  // row or column of a 2^16 perfect matching, so the first, a middle and
  // the last OpenMP chunk each see one.
  constexpr vid_t n = 1 << 16;
  const BipartiteGraph g = make_planted_perfect(n, 3, 5);
  const Matching perfect = hopcroft_karp(g);
  ASSERT_EQ(perfect.cardinality(), n);
  ASSERT_TRUE(is_valid_matching(g, perfect));

  const auto expect_agree = [&](const Matching& m, const std::string& what) {
    const std::string why = describe_matching_violation(g, m);
    EXPECT_FALSE(why.empty()) << what;
    EXPECT_EQ(is_valid_matching(g, m), why.empty()) << what << ": " << why;
  };
  const auto at = [](vid_t v) { return static_cast<std::size_t>(v); };

  Matching m = perfect;
  m.row_match.pop_back();
  expect_agree(m, "row view too short");
  m = perfect;
  m.col_match.push_back(kNil);
  expect_agree(m, "column view too long");

  for (const vid_t p : {vid_t{0}, n / 2, n - 1}) {
    const std::string pos = " at " + std::to_string(p);
    const vid_t q = p == 0 ? 1 : p - 1;  // another row, for two-row edits

    m = perfect;
    m.row_match[at(p)] = n;
    expect_agree(m, "row partner past the end" + pos);
    m = perfect;
    m.row_match[at(p)] = -2;
    expect_agree(m, "negative row partner" + pos);
    m = perfect;
    m.col_match[at(p)] = n + 3;
    expect_agree(m, "column partner past the end" + pos);

    // Row side: row p claims q's column, which still names q.
    m = perfect;
    m.row_match[at(p)] = perfect.row_match[at(q)];
    expect_agree(m, "asymmetric row view" + pos);

    // Column side: column p still names its row, which no longer names it.
    m = perfect;
    m.row_match[at(perfect.col_match[at(p)])] = kNil;
    expect_agree(m, "asymmetric column view" + pos);

    // Both views agree on a pair that is not an edge: swap p's partner with
    // that of the first row r whose partner is not a neighbour of p.
    vid_t r = 0;
    while (r == p || g.has_edge(p, perfect.row_match[at(r)])) ++r;
    m = perfect;
    const vid_t jp = perfect.row_match[at(p)];
    const vid_t jr = perfect.row_match[at(r)];
    m.rematch(p, jr);
    m.rematch(r, jp);
    expect_agree(m, "non-edge pair" + pos);
  }
}

TEST(MatchingFromColView, ReconstructsRowView) {
  // Columns 0 and 2 claim rows 1 and 0 respectively.
  const Matching m = matching_from_col_view(2, {1, kNil, 0});
  EXPECT_EQ(m.row_match[0], 2);
  EXPECT_EQ(m.row_match[1], 0);
  EXPECT_EQ(m.cardinality(), 2);
}

TEST(MatchingFromColView, SurvivingWriteWins) {
  // If two columns claimed the same row the input col view itself would be
  // inconsistent; the reconstruction keeps the *last* column's claim in the
  // row view. OneSidedMatch never produces that case (each row writes at
  // most one column), which this test documents by construction.
  const Matching m = matching_from_col_view(1, {0, 0});
  EXPECT_EQ(m.row_match[0], 1);
}

TEST(MatchingFromColView, RejectsOutOfRangeRowIds) {
  EXPECT_THROW((void)matching_from_col_view(2, {2}), std::out_of_range);
  EXPECT_THROW((void)matching_from_col_view(2, {kNil, -7}), std::out_of_range);
  EXPECT_NO_THROW((void)matching_from_col_view(2, {kNil, 1}));
}

TEST(Maximality, DetectsAugmentableEdge) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0, 1}, {1}});
  Matching empty(2, 2);
  EXPECT_FALSE(is_maximal_matching(g, empty));
  Matching m(2, 2);
  m.match(0, 0);
  m.match(1, 1);
  EXPECT_TRUE(is_maximal_matching(g, m));
}

TEST(Maximality, EmptyGraphIsTriviallyMaximal) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{}, {}});
  EXPECT_TRUE(is_maximal_matching(g, Matching(2, 2)));
}

} // namespace
} // namespace bmh
