/// Tests for the scaled-PDF neighbour sampling shared by both heuristics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/choice.hpp"
#include "core/k_out.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "test_helpers.hpp"
#include "undirected/graph.hpp"
#include "undirected/matching.hpp"

namespace bmh {
namespace {

using namespace testing;

TEST(Choice, EveryNonEmptyRowPicksANeighbor) {
  const BipartiteGraph g = make_erdos_renyi(500, 500, 2000, 3);
  const ScalingResult s = run_ws(identity_scaling_ws, g, true);
  const std::vector<vid_t> choice = run_ws(sample_row_choices, g, s.dc, 7);
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    if (g.row_degree(i) == 0) {
      EXPECT_EQ(choice[static_cast<std::size_t>(i)], kNil);
    } else {
      EXPECT_TRUE(has_edge(g, i, choice[static_cast<std::size_t>(i)])) << "row " << i;
    }
  }
}

TEST(Choice, ColumnSideSymmetric) {
  const BipartiteGraph g = make_erdos_renyi(300, 400, 1500, 5);
  const ScalingResult s = run_ws(identity_scaling_ws, g, true);
  const std::vector<vid_t> choice = run_ws(sample_col_choices, g, s.dr, 9);
  for (vid_t j = 0; j < g.num_cols(); ++j) {
    if (g.col_degree(j) == 0) {
      EXPECT_EQ(choice[static_cast<std::size_t>(j)], kNil);
    } else {
      EXPECT_TRUE(has_edge(g, choice[static_cast<std::size_t>(j)], j)) << "col " << j;
    }
  }
}

TEST(Choice, DeterministicInSeed) {
  const BipartiteGraph g = make_erdos_renyi(400, 400, 1600, 1);
  const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{});
  EXPECT_EQ(run_ws(sample_row_choices, g, s.dc, 42),
            run_ws(sample_row_choices, g, s.dc, 42));
  EXPECT_NE(run_ws(sample_row_choices, g, s.dc, 42),
            run_ws(sample_row_choices, g, s.dc, 43));
}

TEST(Choice, RowAndColumnStreamsAreIndependent) {
  // With the same seed, the row-side and column-side lanes must not be
  // correlated (different salts). On a symmetric structure correlated
  // streams would produce suspiciously many reciprocal picks.
  const BipartiteGraph g = make_full(200);
  const ScalingResult s = run_ws(identity_scaling_ws, g, true);
  const std::vector<vid_t> rc = run_ws(sample_row_choices, g, s.dc, 11);
  const std::vector<vid_t> cc = run_ws(sample_col_choices, g, s.dr, 11);
  int reciprocal = 0;
  for (vid_t i = 0; i < 200; ++i)
    if (cc[static_cast<std::size_t>(rc[static_cast<std::size_t>(i)])] == i) ++reciprocal;
  EXPECT_LT(reciprocal, 10);  // expectation is 1
}

TEST(Choice, FollowsScaledDistribution) {
  // Row 0 has two columns; force dc so column 1 carries 90% of the mass and
  // check the empirical pick frequency over many seeds.
  const BipartiteGraph g = graph_from_rows(1, 2, {{0, 1}});
  std::vector<double> dc = {0.1, 0.9};
  int picked_heavy = 0;
  constexpr int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    const auto choice = run_ws(sample_row_choices, g, dc, static_cast<std::uint64_t>(t));
    if (choice[0] == 1) ++picked_heavy;
  }
  const double freq = static_cast<double>(picked_heavy) / kTrials;
  EXPECT_NEAR(freq, 0.9, 0.03);
}

TEST(Choice, UniformWhenUnscaled) {
  const BipartiteGraph g = graph_from_rows(1, 4, {{0, 1, 2, 3}});
  const std::vector<double> dc(4, 1.0);
  std::vector<int> hist(4, 0);
  constexpr int kTrials = 4000;
  for (int t = 0; t < kTrials; ++t) {
    const auto choice = run_ws(sample_row_choices, g, dc, static_cast<std::uint64_t>(t));
    ++hist[static_cast<std::size_t>(choice[0])];
  }
  for (const int h : hist) EXPECT_NEAR(h, kTrials / 4, 5 * std::sqrt(kTrials / 4.0));
}

TEST(Choice, ZeroWeightNeighborsAlmostNeverPicked) {
  const BipartiteGraph g = graph_from_rows(1, 3, {{0, 1, 2}});
  const std::vector<double> dc = {0.0, 1.0, 0.0};
  for (int t = 0; t < 50; ++t) {
    const auto choice = run_ws(sample_row_choices, g, dc, static_cast<std::uint64_t>(t));
    EXPECT_EQ(choice[0], 1);
  }
}

TEST(Choice, AllZeroWeightsFallBackToUniform) {
  const BipartiteGraph g = graph_from_rows(1, 3, {{0, 1, 2}});
  const std::vector<double> dc = {0.0, 0.0, 0.0};
  const auto choice = run_ws(sample_row_choices, g, dc, 3);
  EXPECT_NE(choice[0], kNil);
  EXPECT_TRUE(has_edge(g, 0, choice[0]));
}

TEST(Choice, SizeMismatchThrows) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {1}});
  const std::vector<double> wrong(3, 1.0);
  EXPECT_THROW((void)run_ws(sample_row_choices, g, wrong, 1), std::invalid_argument);
  EXPECT_THROW((void)run_ws(sample_col_choices, g, wrong, 1), std::invalid_argument);
}

/// The inverse-CDF walk the samplers used before they kept running sums:
/// every pick re-adds the weights until the sum reaches r.
vid_t walk_pick(std::span<const vid_t> nbrs, const std::vector<double>& weight, double total,
                Rng& rng) {
  if (total <= 0.0) return nbrs[static_cast<std::size_t>(rng.next_below(nbrs.size()))];
  const double r = rng.next_double_open0() * total;
  double acc = 0.0;
  for (const vid_t v : nbrs) {
    acc += weight[static_cast<std::size_t>(v)];
    if (acc >= r) return v;
  }
  return nbrs.back();
}

/// The row side of sample_row_choices (k = 1) and sample_row_choices_k
/// (k > 1) over walk_pick: the same lane salts, forks, whole-neighbourhood
/// rule and bounded-retry de-duplication.
std::vector<vid_t> walk_row_choices(const BipartiteGraph& g, const std::vector<double>& dc,
                                    int k, std::uint64_t seed) {
  const std::uint64_t salt = k == 1 ? 0x524f575f5349444full : 0x6b4f55545f524f57ull;
  const auto width = static_cast<std::size_t>(k);
  std::vector<vid_t> out(static_cast<std::size_t>(g.num_rows()) * width, kNil);
  const Rng root(seed);
  for (vid_t u = 0; u < g.num_rows(); ++u) {
    const std::span<const vid_t> nbrs = g.row_neighbors(u);
    if (nbrs.empty()) continue;
    vid_t* const slot = out.data() + static_cast<std::size_t>(u) * width;
    if (k > 1 && width >= nbrs.size()) {
      std::copy(nbrs.begin(), nbrs.end(), slot);
      continue;
    }
    Rng rng = root.fork(salt ^ static_cast<std::uint64_t>(u));
    double total = 0.0;
    for (const vid_t v : nbrs) total += dc[static_cast<std::size_t>(v)];
    int filled = 0;
    for (int attempt = 0; attempt < 8 * k && filled < k; ++attempt) {
      const vid_t picked = walk_pick(nbrs, dc, total, rng);
      if (std::find(slot, slot + filled, picked) == slot + filled) slot[filled++] = picked;
    }
  }
  return out;
}

TEST(Choice, StoredSumsPickWhatTheWalkPicks) {
  // One row per case, each over its own columns, so a row's weights are
  // the dc of its columns in order.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto ramp = [](std::size_t degree) {
    std::vector<double> w(degree);
    for (std::size_t t = 0; t < degree; ++t) w[t] = 0.25 + static_cast<double>(t % 7);
    return w;
  };
  const std::vector<std::vector<double>> cases = {
      {0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.5, 0.0},  // zeros: equal running sums
      {0.0, 0.0, 0.0, 0.0, 0.0},                      // all zero: the uniform fallback
      {1e-12, 1e-12, 1e12, 1e-12, 1e-12},             // one dominant weight
      {3.0},                                          // degree 1
      ramp(kPrefixPickMaxDegree),                     // at the cap
      ramp(kPrefixPickMaxDegree + 1),                 // past it: the walk
      ramp(200),
      {1.0, 2.0, kNaN, 1.0, 3.0, 1.0},  // a NaN sum lands on the last neighbour
      {1.0, 2.0, kInf, 1.0, 3.0, 1.0},  // an infinite one on the infinite weight
      {1.0, 1.0, 1.0, 1.0},
  };
  std::vector<std::vector<vid_t>> rows;
  std::vector<double> dc;
  for (const std::vector<double>& weights : cases) {
    rows.emplace_back();
    for (const double w : weights) {
      rows.back().push_back(static_cast<vid_t>(dc.size()));
      dc.push_back(w);
    }
  }
  const BipartiteGraph g =
      graph_from_rows(static_cast<vid_t>(rows.size()), static_cast<vid_t>(dc.size()), rows);
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    EXPECT_EQ(run_ws(sample_row_choices, g, dc, seed), walk_row_choices(g, dc, 1, seed))
        << "k 1, seed " << seed;
    for (const int k : {2, 3})
      EXPECT_EQ(run_ws(sample_row_choices_k, g, dc, k, seed), walk_row_choices(g, dc, k, seed))
          << "k " << k << ", seed " << seed;
  }
}

/// Multipliers for a pinned case: `iterations` Sinkhorn–Knopp sweeps, the
/// identity at 0, and at -1 the identity zeroed on every other vertex, so
/// the vertices whose neighbours all weigh zero take the uniform fallback.
ScalingResult pinned_scaling(const BipartiteGraph& g, int iterations) {
  if (iterations > 0)
    return run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{iterations, 0.0});
  ScalingResult s = run_ws(identity_scaling_ws, g, true);
  if (iterations < 0) {
    for (std::size_t i = 0; i < s.dr.size(); i += 2) s.dr[i] = 0.0;
    for (std::size_t j = 0; j < s.dc.size(); j += 2) s.dc[j] = 0.0;
  }
  return s;
}

/// The undirected counterpart of pinned_scaling on `g`'s bipartite union.
std::vector<double> pinned_symmetric_scaling(const UndirectedGraph& g, int iterations) {
  std::vector<double> d = run_ws(scale_symmetric_ws, g, iterations > 0 ? iterations : 0).d;
  if (iterations < 0)
    for (std::size_t u = 0; u < d.size(); u += 2) d[u] = 0.0;
  return d;
}

/// Fingerprint of the picks of seeds 1, 2 and 3, concatenated.
template <typename Sample>
std::uint64_t picks_fingerprint(Sample&& sample) {
  std::vector<vid_t> all;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<vid_t> picks = sample(seed);
    all.insert(all.end(), picks.begin(), picks.end());
  }
  return testing::bit_fingerprint(all);
}

TEST(Choice, PicksPinnedAcrossVersions) {
  // Golden values captured from the samplers before the row, column, k-out
  // and undirected loops shared one weighted pick: every pick of every
  // sampler must stay bit-identical at any thread count. `sparse` has empty
  // rows and columns; `power`'s hub rows (276 of them, up to degree 830)
  // pass kPrefixPickMaxDegree and keep the walk; its rows were captured
  // before the samplers kept running sums. The undirected sampler runs on
  // each graph's bipartite union with the symmetric scaling of the same
  // iterations.
  const BipartiteGraph er = make_erdos_renyi(1 << 14, 1 << 14, 8 << 14, 11);
  const BipartiteGraph planted = make_planted_perfect(1 << 14, 7, 13);
  const BipartiteGraph sparse = make_erdos_renyi(4096, 5000, 4096, 14);
  const BipartiteGraph power = make_power_law(1 << 14, 8, 1.8, 17);
  struct Pin {
    const BipartiteGraph* g;
    int iterations;
    std::uint64_t row, col, row_k2, row_k3, col_k2, col_k3, undirected;
  };
  const Pin pins[] = {
      {&er, -1, 0x8f86f0b6fb7f4c82ull, 0xbc13077c4544938cull, 0x7232e016d3806d24ull,
       0x10dcf9f777d2db2dull, 0x97c09e5c93b3a161ull, 0x8ac140bc47a632f3ull, 0x3f96b9e280246df9ull},
      {&er, 0, 0x13e0eefc7b3d616aull, 0x55d3424227bace1bull, 0xa2557b1aaa8194daull,
       0x2cb5a12812dcc8aeull, 0xe50b61f6827fb289ull, 0x84a67fe3e0e1af59ull, 0x69c72c2ab0de7714ull},
      {&er, 1, 0xbd240211ae67d40aull, 0xf6113b1c6d28325eull, 0x9adbbd747e39f5f1ull,
       0x6718751ca586e156ull, 0xb50e4815a883f70full, 0x70b76b654bf038b0ull, 0xb708d743eb3dd98dull},
      {&er, 5, 0x0a4f4dac77342768ull, 0x8df0e8fc1940d36eull, 0x6629778ac8eeedf3ull,
       0x7d469b2629b84e8full, 0xc33ed37e5c3a8523ull, 0xeb972c30b1dbcadbull, 0xac11ca665d67d54bull},
      {&planted, -1, 0x3abe5280673b9214ull, 0xf587a683f802434aull, 0xae2469d28f2d9c24ull,
       0x8f85278386f74df3ull, 0x30b3bb7ded038e78ull, 0x44bde1c7aa01a3a0ull, 0x021f18457b5a7cf2ull},
      {&planted, 0, 0x963106e6246f9027ull, 0xdbf3454b040d9690ull, 0x979b195de3c0269full,
       0xdf0fbf10a6d4b522ull, 0xfa0191e818fa5c28ull, 0xcc2a44440f5d4734ull, 0x300ed53bc4575d3eull},
      {&planted, 1, 0xab543ddc6b3cfcb0ull, 0x9face470dd256dc5ull, 0xb526f9ac62d1f612ull,
       0x585158212a248b00ull, 0xfb12a216b10c2123ull, 0x4f293a4687909c3dull, 0xde782a3f57bd86ccull},
      {&planted, 5, 0x2a2d62af2ee27a52ull, 0xbafbcdf100e629efull, 0x7d51373848d02978ull,
       0x1261e8f873479072ull, 0x7b82913043fa54f4ull, 0x8e37364a67d88d98ull, 0xf72a9dcdd70830ceull},
      {&sparse, -1, 0xb378e5d35e507fe2ull, 0x4e5c7529bd757c4dull, 0x283975bfb56a9d10ull,
       0x4647ae18948d88f4ull, 0xb6789fa099691509ull, 0x3004342b27873eb0ull, 0x9a7d8476fa9237a4ull},
      {&sparse, 0, 0xff8c971dcc0d347aull, 0xac83cfc457b2d6d6ull, 0x084cb1153d17d140ull,
       0xb9a7ec7d3da1331bull, 0xfec74bb3762c9ed3ull, 0xc3776b3c0be4472cull, 0xe0b449ca197a58bfull},
      {&sparse, 1, 0x32caea163d979006ull, 0x2e2dd7a88b37df2eull, 0x3050ff0425a823f4ull,
       0x2f679e1108a83156ull, 0x776de38109982d97ull, 0x5011f17c0b995784ull, 0xe4caa7e8dd605fffull},
      {&sparse, 5, 0x4e89055095e1c494ull, 0x63eefd3b99492a22ull, 0x60d27b20d9ee99e4ull,
       0xadb1268994b573b4ull, 0x9a1ebe10755db4a4ull, 0xe46a67010747b9dcull, 0x46109b51fcb7feafull},
      {&power, -1, 0x349bd68ad47834d5ull, 0xa85da059f81985ffull, 0x5cb52810c72a7b6eull,
       0x6aa16482d6ee2116ull, 0xe48b75b5a02df4ebull, 0x0e279d5a7184972cull, 0xdcbfc6881a4693d6ull},
      {&power, 0, 0x901bdf3201c88c6cull, 0x2484c566693a1b4dull, 0x6da3913bcd223413ull,
       0x8596b6fb16b026f2ull, 0xb6dcbbcc883e2516ull, 0xa9965ab2a63a7a8full, 0x329af5315b06e9b3ull},
      {&power, 1, 0xced99d663cc9924dull, 0xf1c969f1306e7669ull, 0x2ff7f2a484c67467ull,
       0x0240d80287ccf4bfull, 0x0737ec8f04cff194ull, 0x3cc33df853a2927aull, 0x6ae963e1c4b1258dull},
      {&power, 5, 0xffb41b220c7601b9ull, 0xc6c70b99e6351770ull, 0x53f59df7d09b53b1ull,
       0x2bb0e15ba0abbb74ull, 0xd3a057ce619bb40aull, 0xeb1548070059c6e5ull, 0x966b3838629d8eb1ull},
  };
  for (const Pin& pin : pins) {
    const BipartiteGraph& g = *pin.g;
    const ScalingResult s = pinned_scaling(g, pin.iterations);
    UndirectedGraph u;
    u.assign_bipartite_union(g);
    const std::vector<double> d = pinned_symmetric_scaling(u, pin.iterations);
    const std::string where = "edges " + std::to_string(g.num_edges()) + ", iters " +
                              std::to_string(pin.iterations);
    EXPECT_EQ(picks_fingerprint([&](std::uint64_t seed) {
                return run_ws(sample_row_choices, g, s.dc, seed);
              }),
              pin.row)
        << where << ", row";
    EXPECT_EQ(picks_fingerprint([&](std::uint64_t seed) {
                return run_ws(sample_col_choices, g, s.dr, seed);
              }),
              pin.col)
        << where << ", col";
    EXPECT_EQ(picks_fingerprint([&](std::uint64_t seed) {
                return run_ws(sample_row_choices_k, g, s.dc, 2, seed);
              }),
              pin.row_k2)
        << where << ", row k2";
    EXPECT_EQ(picks_fingerprint([&](std::uint64_t seed) {
                return run_ws(sample_row_choices_k, g, s.dc, 3, seed);
              }),
              pin.row_k3)
        << where << ", row k3";
    EXPECT_EQ(picks_fingerprint([&](std::uint64_t seed) {
                return run_ws(sample_col_choices_k, g, s.dr, 2, seed);
              }),
              pin.col_k2)
        << where << ", col k2";
    EXPECT_EQ(picks_fingerprint([&](std::uint64_t seed) {
                return run_ws(sample_col_choices_k, g, s.dr, 3, seed);
              }),
              pin.col_k3)
        << where << ", col k3";
    EXPECT_EQ(picks_fingerprint([&](std::uint64_t seed) {
                return run_ws(sample_choices_ws, u, d, seed);
              }),
              pin.undirected)
        << where << ", undirected";
  }
}

} // namespace
} // namespace bmh
