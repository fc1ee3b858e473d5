/// Tests for the 12-instance UFL stand-in suite used by Table 3 and
/// Figures 3-5: names, determinism, structural class properties.

#include <gtest/gtest.h>

#include <string>

#include "graph/generators_suite.hpp"
#include "graph/stats.hpp"
#include "matching/push_relabel.hpp"

namespace bmh {
namespace {

constexpr double kTinyScale = 0.02;  // keep unit tests quick

TEST(Suite, HasTwelveCanonicalNames) {
  const auto names = suite_names();
  ASSERT_EQ(names.size(), 12u);
  EXPECT_EQ(names.front(), "atmosmodl_like");
  EXPECT_EQ(names.back(), "venturiLevel3_like");
}

TEST(Suite, UnknownNameThrows) {
  EXPECT_THROW((void)make_suite_instance("nope", 1.0, 1), std::invalid_argument);
}

TEST(Suite, EveryInstanceBuildsAtTinyScale) {
  for (const auto& name : suite_names()) {
    const SuiteInstance inst = make_suite_instance(name, kTinyScale, 42);
    EXPECT_EQ(inst.name, name);
    EXPECT_GT(inst.graph.num_rows(), 0) << name;
    EXPECT_GT(inst.graph.num_edges(), 0) << name;
    EXPECT_TRUE(inst.graph.square()) << name;
  }
}

TEST(Suite, GenerationIsDeterministic) {
  const SuiteInstance a = make_suite_instance("cage15_like", kTinyScale, 42);
  const SuiteInstance b = make_suite_instance("cage15_like", kTinyScale, 42);
  EXPECT_TRUE(a.graph.structurally_equal(b.graph));
}

TEST(Suite, RoadInstancesAreSprankDeficient) {
  // The paper's europe_osm has sprank/n = 0.99 and road_usa 0.95; the
  // stand-ins must reproduce that deficiency class.
  const SuiteInstance europe = make_suite_instance("europe_osm_like", kTinyScale, 42);
  const double eu_ratio = static_cast<double>(sprank(europe.graph)) /
                          static_cast<double>(europe.graph.num_rows());
  EXPECT_LT(eu_ratio, 1.0);
  EXPECT_GT(eu_ratio, 0.95);

  const SuiteInstance usa = make_suite_instance("road_usa_like", kTinyScale, 42);
  const double usa_ratio = static_cast<double>(sprank(usa.graph)) /
                           static_cast<double>(usa.graph.num_rows());
  EXPECT_LT(usa_ratio, 0.99);
  EXPECT_GT(usa_ratio, 0.90);
}

TEST(Suite, PowerLawInstancesHaveHighestDegreeVariance) {
  // The paper singles out torso1/audikw_1 for extreme per-row nonzero
  // variance (load imbalance); the stand-ins preserve that ordering.
  double torso_var = 0.0, mesh_var = 0.0;
  {
    const SuiteInstance t = make_suite_instance("torso1_like", kTinyScale, 42);
    torso_var = row_degree_stats(t.graph).variance;
  }
  {
    const SuiteInstance m = make_suite_instance("atmosmodl_like", kTinyScale, 42);
    mesh_var = row_degree_stats(m.graph).variance;
  }
  EXPECT_GT(torso_var, 100.0 * std::max(mesh_var, 1.0));
}

TEST(Suite, MeshInstancesHaveLowDegreeSpread) {
  const SuiteInstance m = make_suite_instance("venturiLevel3_like", kTinyScale, 42);
  const DegreeStats s = row_degree_stats(m.graph);
  EXPECT_LE(s.max, 5);
  EXPECT_GE(s.min, 3);
}

TEST(Suite, ScaleGrowsInstances) {
  const SuiteInstance small = make_suite_instance("Hamrle3_like", 0.02, 42);
  const SuiteInstance large = make_suite_instance("Hamrle3_like", 0.08, 42);
  EXPECT_GT(large.graph.num_rows(), 2 * small.graph.num_rows());
}

TEST(Suite, MakeSuiteReturnsAllInstancesInOrder) {
  const auto suite = make_suite(kTinyScale, 42);
  ASSERT_EQ(suite.size(), 12u);
  const auto names = suite_names();
  for (std::size_t i = 0; i < suite.size(); ++i) EXPECT_EQ(suite[i].name, names[i]);
}

} // namespace
} // namespace bmh
