/// Tests for the quality accounting helpers.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/quality.hpp"
#include "core/one_sided.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

using namespace testing;

struct QualityReport {
  vid_t cardinality = 0;
  vid_t sprank = 0;
  double quality = 0.0;  ///< cardinality / sprank
  bool valid = false;    ///< is_valid_matching held
};

/// A heuristic's result against the exact optimum (sprank_ws, its scratch
/// leased from `ws`).
[[nodiscard]] QualityReport evaluate_matching(const BipartiteGraph& g,
                                              const Matching& m, Workspace& ws) {
  QualityReport r;
  r.cardinality = m.cardinality();
  r.sprank = sprank_ws(g, ws);
  r.quality = matching_quality(m, r.sprank);
  r.valid = is_valid_matching(g, m);
  return r;
}

TEST(Quality, RatioComputation) {
  Matching m(4, 4);
  m.match(0, 0);
  m.match(1, 1);
  EXPECT_DOUBLE_EQ(matching_quality(m, 4), 0.5);
  EXPECT_DOUBLE_EQ(matching_quality(m, 2), 1.0);
}

TEST(Quality, ZeroSprankIsPerfect) {
  const Matching m(3, 3);
  EXPECT_DOUBLE_EQ(matching_quality(m, 0), 1.0);
}

TEST(Quality, EvaluateMatchingEndToEnd) {
  const BipartiteGraph g = make_planted_perfect(200, 2, 1);
  const Matching m = run_ws(match_min_degree_ws, g);
  const QualityReport r = run_ws(evaluate_matching, g, m);
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.sprank, 200);
  EXPECT_EQ(r.cardinality, m.cardinality());
  EXPECT_DOUBLE_EQ(r.quality, static_cast<double>(r.cardinality) / 200.0);
  EXPECT_GE(r.quality, 0.5);
}

TEST(Quality, FlagsInvalidMatching) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  Matching bad(2, 2);
  bad.match(0, 1);  // not an edge
  const QualityReport r = run_ws(evaluate_matching, g, bad);
  EXPECT_FALSE(r.valid);
}

TEST(Quality, GuaranteeConstantsAreConsistent) {
  // 1 - 1/e and 2(1 - rho) with rho e^rho = 1.
  EXPECT_NEAR(kOneSidedGuarantee, 1.0 - std::exp(-1.0), 1e-15);
  const double rho = 1.0 - kTwoSidedGuarantee / 2.0;
  EXPECT_NEAR(rho * std::exp(rho), 1.0, 1e-12);
}

} // namespace
} // namespace bmh
