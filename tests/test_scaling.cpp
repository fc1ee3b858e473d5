/// Tests for Sinkhorn-Knopp and Ruiz scaling: convergence to doubly
/// stochastic form, the paper's error metric, behaviour without total
/// support (DM "*"-entry suppression, §3.3), and the SK-vs-Ruiz comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "analysis/dulmage_mendelsohn.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "matching/hopcroft_karp.hpp"
#include "scaling/ruiz.hpp"
#include "scaling/scaling.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

using namespace testing;

ScalingOptions iters(int n) {
  ScalingOptions o;
  o.max_iterations = n;
  return o;
}

TEST(IdentityScaling, AllOnesMultipliers) {
  const BipartiteGraph g = make_erdos_renyi(50, 60, 300, 1);
  const ScalingResult r = run_ws(identity_scaling_ws, g, true);
  EXPECT_EQ(r.iterations, 0);
  for (const double d : r.dr) EXPECT_EQ(d, 1.0);
  for (const double d : r.dc) EXPECT_EQ(d, 1.0);
}

TEST(IdentityScaling, ErrorIsMaxDegreeMinusOne) {
  // For an unscaled (0,1)-matrix the row/col sums are the degrees, so the
  // error is max(deg) - 1 (the paper notes n-1 for a full matrix).
  const BipartiteGraph g = make_full(10);
  const ScalingResult r = run_ws(identity_scaling_ws, g, true);
  EXPECT_NEAR(r.error, 9.0, 1e-12);
}

TEST(SinkhornKnopp, FullMatrixScalesInOneIteration) {
  // For the all-ones matrix the doubly stochastic limit is s_ij = 1/n,
  // reached immediately.
  const BipartiteGraph g = make_full(8);
  const ScalingResult r = run_ws(scale_sinkhorn_knopp_ws, g, iters(1));
  for (vid_t i = 0; i < 8; ++i)
    for (vid_t j = 0; j < 8; ++j) EXPECT_NEAR(r.entry(i, j), 1.0 / 8.0, 1e-12);
  EXPECT_NEAR(r.error, 0.0, 1e-12);
}

TEST(SinkhornKnopp, PermutationMatrixIsFixedPoint) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{1}, {2}, {0}});
  const ScalingResult r = run_ws(scale_sinkhorn_knopp_ws, g, iters(3));
  EXPECT_NEAR(r.error, 0.0, 1e-12);
  EXPECT_NEAR(r.entry(0, 1), 1.0, 1e-12);
}

TEST(SinkhornKnopp, RowSumsAreOneAfterEachIteration) {
  const BipartiteGraph g = make_planted_perfect(300, 4, 5);
  const ScalingResult r = run_ws(scale_sinkhorn_knopp_ws, g, iters(3));
  const std::vector<double> rs = run_ws(scaled_row_sums, g, r);
  for (const double s : rs) EXPECT_NEAR(s, 1.0, 1e-9);
}

TEST(SinkhornKnopp, ErrorDecreasesWithIterations) {
  const BipartiteGraph g = make_planted_perfect(500, 5, 11);
  const double e1 = run_ws(scale_sinkhorn_knopp_ws, g, iters(1)).error;
  const double e5 = run_ws(scale_sinkhorn_knopp_ws, g, iters(5)).error;
  const double e20 = run_ws(scale_sinkhorn_knopp_ws, g, iters(20)).error;
  EXPECT_LT(e5, e1);
  EXPECT_LT(e20, e5);
  EXPECT_LT(e20, 0.1);  // rate depends on the 2nd singular value; be lenient
}

TEST(SinkhornKnopp, ConvergesOnTotalSupportMatrix) {
  // Cycle matrices have total support; SK must converge to error ~ 0.
  const BipartiteGraph g = make_cycle(100);
  ScalingOptions o;
  o.max_iterations = 200;
  o.tolerance = 1e-10;
  const ScalingResult r = run_ws(scale_sinkhorn_knopp_ws, g, o);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.error, 1e-10);
  // The unique scaling of the 2-regular cycle is s_ij = 1/2 everywhere.
  for (vid_t i = 0; i < 100; ++i)
    for (const vid_t j : g.row_neighbors(i)) EXPECT_NEAR(r.entry(i, j), 0.5, 1e-6);
}

TEST(SinkhornKnopp, ToleranceStopsEarly) {
  const BipartiteGraph g = make_cycle(50);
  ScalingOptions o;
  o.max_iterations = 1000;
  o.tolerance = 1e-6;
  const ScalingResult r = run_ws(scale_sinkhorn_knopp_ws, g, o);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 1000);
}

TEST(SinkhornKnopp, EarlyStopOfEitherParityMatchesTheCappedRun) {
  // A tolerance stop returns the multipliers of a run capped at the same
  // iteration, whichever buffer the stop leaves them in: caps of both
  // parities around the same stop.
  const BipartiteGraph g = make_planted_perfect(1 << 14, 7, 13);
  const ScalingResult capped = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{38, 0.0});
  for (const int cap : {100, 101}) {
    const ScalingResult r = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{cap, 0.05});
    ASSERT_TRUE(r.converged) << cap;
    ASSERT_EQ(r.iterations, 38) << cap;
    EXPECT_EQ(r.dr, capped.dr) << cap;
    EXPECT_EQ(r.dc, capped.dc) << cap;
    EXPECT_EQ(r.error, capped.error) << cap;
  }
}

TEST(SinkhornKnopp, EmptyRowsAndColumnsAreTolerated) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{0}, {}, {0, 2}});
  const ScalingResult r = run_ws(scale_sinkhorn_knopp_ws, g, iters(10));
  EXPECT_TRUE(std::isfinite(r.error));
  for (const double d : r.dr) EXPECT_TRUE(std::isfinite(d));
  for (const double d : r.dc) EXPECT_TRUE(std::isfinite(d));
}

TEST(SinkhornKnopp, EdgelessGraphConvergesImmediately) {
  // An edgeless matrix is vacuously doubly stochastic; the kernel used to
  // burn max_iterations of no-op sweeps and report converged = false.
  const BipartiteGraph g = graph_from_rows(3, 4, {{}, {}, {}});
  const ScalingResult r = run_ws(scale_sinkhorn_knopp_ws, g, iters(50));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.error, 0.0);
  ASSERT_EQ(r.dr.size(), 3u);
  ASSERT_EQ(r.dc.size(), 4u);
  for (const double d : r.dr) EXPECT_EQ(d, 1.0);
  for (const double d : r.dc) EXPECT_EQ(d, 1.0);
}

TEST(SinkhornKnopp, MultipliersPinnedAcrossVersions) {
  // Golden values captured from the kernel before the error pass was fused
  // into the next iteration's column sweep: dr, dc, the iteration count,
  // the error and the convergence flag must stay bit-identical. `sparse`
  // has empty rows and columns; the planted cases stop early on the
  // tolerance (the first) or run to the cap (the second).
  const BipartiteGraph er = make_erdos_renyi(1 << 14, 1 << 14, 8 << 14, 11);
  const BipartiteGraph sparse = make_erdos_renyi(4096, 5000, 4096, 14);
  const BipartiteGraph planted = make_planted_perfect(1 << 14, 7, 13);
  struct Pin {
    const BipartiteGraph* g;
    ScalingOptions opts;
    std::uint64_t dr_fingerprint;
    std::uint64_t dc_fingerprint;
    int iterations;
    double error;
    bool converged;
  };
  const Pin pins[] = {
      {&er, {0, 0.0}, 0xe9c1719481e62325ull, 0xe9c1719481e62325ull, 0, 0x1.4p+4, false},
      {&er, {1, 0.0}, 0x88fcf016e03c1b54ull, 0xda7ed35bd126b442ull, 1, 0x1.44e0161fe9048p+0,
       false},
      {&er, {5, 0.0}, 0x1312c572aa508542ull, 0x85ac39238521fed9ull, 5, 0x1.4475ef4fa812cp-2,
       false},
      {&sparse, {0, 0.0}, 0x13d3bafd83932325ull, 0x2e37c1b6b6fa73a5ull, 0, 0x1.4p+2, false},
      {&sparse, {1, 0.0}, 0x14bf0c95a203945eull, 0x0c692211bc9c5e7eull, 1, 0x1p+2, false},
      {&sparse, {5, 0.0}, 0x656225440ce4e510ull, 0x763313232a18fdb0ull, 5, 0x1p+2, false},
      {&planted, {100, 0.05}, 0x52c836c0cb919d75ull, 0x0e96118b4e602912ull, 38,
       0x1.9079b1ddaa22p-5, true},
      {&planted, {100, 1e-3}, 0xd5c6088fa213f645ull, 0x6a1e86432c98ef48ull, 100,
       0x1.3e959905a6dp-6, false},
  };
  for (const Pin& pin : pins) {
    const ScalingResult r = run_ws(scale_sinkhorn_knopp_ws, *pin.g, pin.opts);
    const std::string where = "edges " + std::to_string(pin.g->num_edges()) + ", iters " +
                              std::to_string(pin.opts.max_iterations) + ", tolerance " +
                              std::to_string(pin.opts.tolerance);
    EXPECT_EQ(testing::bit_fingerprint(r.dr), pin.dr_fingerprint) << where;
    EXPECT_EQ(testing::bit_fingerprint(r.dc), pin.dc_fingerprint) << where;
    EXPECT_EQ(r.iterations, pin.iterations) << where;
    EXPECT_EQ(r.error, pin.error) << where;
    EXPECT_EQ(r.converged, pin.converged) << where;
  }
}

TEST(Ruiz, EdgelessGraphConvergesImmediately) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{}, {}});
  const ScalingResult r = run_ws(scale_ruiz_ws, g, iters(50));
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.error, 0.0);
  for (const double d : r.dr) EXPECT_EQ(d, 1.0);
  for (const double d : r.dc) EXPECT_EQ(d, 1.0);
}

TEST(ScalingError, EdgelessGraphIsZero) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{}, {}, {}});
  EXPECT_EQ(run_ws(scaling_error_ws, g, run_ws(identity_scaling_ws, g, true)), 0.0);
}

TEST(ScalingError, ZeroDegreeRowsAreExcluded) {
  // A zero-degree row keeps multiplier 1 and must not contribute a spurious
  // |0 - 1| = 1 term to the error of an otherwise perfectly scaled matrix.
  const BipartiteGraph g = graph_from_rows(3, 2, {{0}, {}, {1}});
  ScalingOptions o;
  o.max_iterations = 20;
  o.tolerance = 1e-12;
  for (const ScalingResult& r :
       {run_ws(scale_sinkhorn_knopp_ws, g, o), run_ws(scale_ruiz_ws, g, o)}) {
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.error, 1e-12);
    EXPECT_EQ(r.dr[1], 1.0);  // untouched empty row
  }
}

TEST(SinkhornKnopp, SuppressesEntriesOutsideMaximumMatchings) {
  // §3.3: on a DM-structured matrix the "*" coupling entries tend to zero.
  const BipartiteGraph g = make_dm_structured(20, 30, 40, 35, 25, 3, 7);
  const DmDecomposition dm = dulmage_mendelsohn(g, run_ws(hopcroft_karp_ws, g));
  const ScalingResult r = run_ws(scale_sinkhorn_knopp_ws, g, iters(200));

  // The paper's claim is about the coupling ("*") entries: they tend to
  // zero. We check it two ways: absolutely, and relative to each row's
  // total probability mass (what the sampling step actually sees). Note
  // that *within* a non-square block, individual matchable entries may
  // legitimately become small too (degree-1 rows absorb their columns'
  // mass), so no lower bound is asserted on those.
  double max_star = 0.0, max_coupling_fraction = 0.0;
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    double coupling_mass = 0.0, total_mass = 0.0;
    for (const vid_t j : g.row_neighbors(i)) {
      const double e = r.entry(i, j);
      total_mass += e;
      if (dm.row_part[static_cast<std::size_t>(i)] !=
          dm.col_part[static_cast<std::size_t>(j)]) {
        coupling_mass += e;
        max_star = std::max(max_star, e);
      }
    }
    if (total_mass > 0.0)
      max_coupling_fraction = std::max(max_coupling_fraction, coupling_mass / total_mass);
  }
  EXPECT_LT(max_star, 0.05);
  EXPECT_LT(max_coupling_fraction, 0.1);
}

TEST(Ruiz, ConvergesOnTotalSupportMatrix) {
  const BipartiteGraph g = make_cycle(60);
  ScalingOptions o;
  o.max_iterations = 500;
  o.tolerance = 1e-8;
  const ScalingResult r = run_ws(scale_ruiz_ws, g, o);
  EXPECT_TRUE(r.converged);
}

TEST(Ruiz, FullMatrixConvergesImmediately) {
  const BipartiteGraph g = make_full(6);
  const ScalingResult r = run_ws(scale_ruiz_ws, g, iters(2));
  for (vid_t i = 0; i < 6; ++i)
    for (vid_t j = 0; j < 6; ++j) EXPECT_NEAR(r.entry(i, j), 1.0 / 6.0, 1e-9);
}

TEST(Ruiz, SlowerThanSinkhornKnoppOnUnsymmetricMatrix) {
  // The paper (§2.2, citing Knight-Ruiz-Uçar) reports SK converges faster
  // on unsymmetric matrices; verify the error ordering after equal sweeps.
  const BipartiteGraph g = make_planted_perfect(400, 6, 3);
  const double sk = run_ws(scale_sinkhorn_knopp_ws, g, iters(5)).error;
  const double rz = run_ws(scale_ruiz_ws, g, iters(5)).error;
  EXPECT_LT(sk, rz);
}

class ScalingIterationSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScalingIterationSweep, ErrorWithinTheoryBoundForErdosRenyi) {
  const int it = GetParam();
  const BipartiteGraph g = make_planted_perfect(1000, 3, 13);
  const ScalingResult r = run_ws(scale_sinkhorn_knopp_ws, g, iters(it));
  EXPECT_EQ(r.iterations, it);
  EXPECT_GE(r.error, 0.0);
  EXPECT_TRUE(std::isfinite(r.error));
}

INSTANTIATE_TEST_SUITE_P(Iterations, ScalingIterationSweep, ::testing::Values(1, 2, 5, 10, 20));

} // namespace
} // namespace bmh
