/// Tests for the push-relabel exact matcher (paper ref. [21]): agreement
/// with brute force and the other exact solvers, warm starts, termination
/// on structured and deficient inputs, and sprank (which push-relabel now
/// computes) against Hopcroft–Karp.

#include <gtest/gtest.h>

#include <string>

#include "core/k_out.hpp"
#include "engine/job.hpp"
#include "graph/generators.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/mc21.hpp"
#include "matching/push_relabel.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

using namespace testing;

TEST(PushRelabel, MatchesBruteForceOnSmallRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const vid_t rows = 2 + static_cast<vid_t>(seed % 7);
    const vid_t cols = 2 + static_cast<vid_t>((seed / 7) % 7);
    const BipartiteGraph g =
        make_erdos_renyi(rows, cols, static_cast<eid_t>(rows) * 2, seed + 500);
    const Matching m = run_ws(push_relabel_ws, g);
    testing::expect_valid(g, m, "push_relabel");
    EXPECT_EQ(m.cardinality(), testing::brute_force_max_matching(g)) << "seed " << seed;
  }
}

TEST(PushRelabel, AgreesWithHopcroftKarpOnMediumGraphs) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const BipartiteGraph g = make_erdos_renyi(800, 850, 4000, seed);
    EXPECT_EQ(run_ws(push_relabel_ws, g).cardinality(),
              run_ws(hopcroft_karp_ws, g).cardinality()) << seed;
  }
}

TEST(PushRelabel, ZooAgreesWithBruteForce) {
  for (const auto& g : testing::small_graph_zoo()) {
    const Matching m = run_ws(push_relabel_ws, g);
    testing::expect_valid(g, m, "zoo");
    EXPECT_EQ(m.cardinality(), testing::brute_force_max_matching(g));
  }
}

TEST(PushRelabel, StructuredInstances) {
  EXPECT_EQ(run_ws(push_relabel_ws, make_ks_adversarial(128, 8)).cardinality(), 128);
  EXPECT_EQ(run_ws(push_relabel_ws, make_mesh(15, 15)).cardinality(), 225);
  EXPECT_EQ(run_ws(push_relabel_ws, make_cycle(51)).cardinality(), 51);
  EXPECT_EQ(run_ws(push_relabel_ws, make_full(32)).cardinality(), 32);
}

TEST(PushRelabel, DeficientAndRectangular) {
  const BipartiteGraph wide = make_erdos_renyi(150, 400, 800, 3);
  EXPECT_EQ(run_ws(push_relabel_ws, wide).cardinality(),
            run_ws(hopcroft_karp_ws, wide).cardinality());
  const BipartiteGraph tall = make_erdos_renyi(400, 150, 800, 4);
  EXPECT_EQ(run_ws(push_relabel_ws, tall).cardinality(),
            run_ws(hopcroft_karp_ws, tall).cardinality());
  const BipartiteGraph sparse = make_erdos_renyi(1000, 1000, 1500, 5);
  EXPECT_EQ(run_ws(push_relabel_ws, sparse).cardinality(),
            run_ws(mc21_ws, sparse).cardinality());
}

TEST(PushRelabel, WarmStartPreservesOptimality) {
  const BipartiteGraph g = make_erdos_renyi(600, 600, 3000, 9);
  Matching warm = run_ws(match_min_degree_ws, g);
  Workspace ws;
  push_relabel_augment_ws(g, warm, ws);
  testing::expect_valid(g, warm, "warm");
  EXPECT_EQ(warm.cardinality(), run_ws(hopcroft_karp_ws, g).cardinality());
}

TEST(PushRelabel, LongAugmentingChains) {
  // Same pathological chain as the HK test: unique perfect matching found
  // only through long rotations; exercises the label dynamics.
  const vid_t n = 4000;
  std::vector<std::vector<vid_t>> rows(static_cast<std::size_t>(n));
  for (vid_t i = 0; i < n; ++i) {
    rows[static_cast<std::size_t>(i)].push_back(i);
    if (i + 1 < n) rows[static_cast<std::size_t>(i)].push_back(i + 1);
  }
  const BipartiteGraph g = graph_from_rows(n, n, rows);
  EXPECT_EQ(run_ws(push_relabel_ws, g).cardinality(), n);
}

TEST(PushRelabel, DeficientErdosRenyiAtScaleMatchesHopcroftKarp) {
  // Sparse ER at n = 2^14 is sprank-deficient: hundreds to thousands of
  // rows have no augmenting path. Without global relabeling each of them
  // climbs the label ladder one push at a time, which took seconds per
  // instance (over 20 s for gen:er:n=16384,deg=4,seed=1, which an engine
  // job hit); the ctest TIMEOUT on this binary turns such a stall into a
  // failure. The graphs are built from the engine's specs.
  for (const int deg : {2, 3, 4}) {
    for (const int seed : {1, 2}) {
      const std::string spec = "gen:er:n=16384,deg=" + std::to_string(deg) +
                               ",seed=" + std::to_string(seed);
      const BipartiteGraph g = build_graph(parse_graph_spec(spec), 0);
      Workspace ws;
      Matching m;
      push_relabel_ws(g, ws, m);
      testing::expect_valid(g, m, spec.c_str());
      const vid_t exact = run_ws(hopcroft_karp_ws, g).cardinality();
      EXPECT_LT(exact, g.num_rows()) << spec;
      EXPECT_EQ(m.cardinality(), exact) << spec;
    }
  }
}

TEST(Sprank, MatchesHopcroftKarpEverywhere) {
  std::vector<BipartiteGraph> graphs = testing::small_graph_zoo();
  graphs.push_back(make_erdos_renyi(3000, 3000, 24000, 1));
  graphs.push_back(make_power_law(3000, 8.0, 1.8, 2));
  graphs.push_back(make_planted_perfect(3000, 4, 3));
  graphs.push_back(make_mesh(40, 60));
  graphs.push_back(make_road_like(3000, 0.3, 0.05, 4));      // deficient
  graphs.push_back(make_erdos_renyi(3000, 3000, 6000, 5));    // deficient
  graphs.push_back(make_erdos_renyi(1000, 2500, 5000, 6));    // wide
  graphs.push_back(make_erdos_renyi(2500, 1000, 5000, 7));    // tall
  graphs.push_back(graph_from_rows(3, 3, {{}, {}, {}}));      // no edges
  Workspace ws;
  for (std::size_t t = 0; t < graphs.size(); ++t) {
    const BipartiteGraph& g = graphs[t];
    const vid_t exact = run_ws(hopcroft_karp_ws, g).cardinality();
    EXPECT_EQ(sprank_ws(g, ws), exact) << "graph " << t;  // warm workspace
    EXPECT_EQ(run_ws(sprank_ws, g), exact) << "graph " << t;
  }
}

TEST(PushRelabel, EmptyAndIsolated) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{}, {1}, {}});
  const Matching m = run_ws(push_relabel_ws, g);
  testing::expect_valid(g, m, "isolated");
  EXPECT_EQ(m.cardinality(), 1);
}

TEST(PushRelabel, MatchingPinnedAcrossVersions) {
  // Golden values captured from the solver before its global relabel
  // prefetched ahead of the BFS queue and its column scan lost the early
  // exit: both must leave every matching bit-identical. The graphs are
  // large_warm's three families at 2^14 (the instances of
  // KarpSipser.OutputPinnedAcrossVersions), each family's 2-out subgraph
  // (k_out's solve), and sprank-deficient ER deg 4 specs, on which global
  // relabels retire rows.
  constexpr vid_t n = 1 << 14;
  const BipartiteGraph er = make_erdos_renyi(n, n, 8 * static_cast<eid_t>(n), 11);
  const BipartiteGraph powerlaw = make_power_law(n, 8.0, 1.8, 12);
  const BipartiteGraph planted = make_planted_perfect(n, 7, 13);
  const auto two_out = [](const BipartiteGraph& g) {
    const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{5, 0.0});
    return run_ws(k_out_subgraph_ws, g, s, 2, 7);
  };
  const BipartiteGraph er_2out = two_out(er);
  const BipartiteGraph powerlaw_2out = two_out(powerlaw);
  const BipartiteGraph planted_2out = two_out(planted);
  const BipartiteGraph deficient1 =
      build_graph(parse_graph_spec("gen:er:n=16384,deg=4,seed=1"), 0);
  const BipartiteGraph deficient2 =
      build_graph(parse_graph_spec("gen:er:n=16384,deg=4,seed=2"), 0);
  struct Pin {
    const char* what;
    const BipartiteGraph* g;
    std::uint64_t row_match_fingerprint;
    vid_t cardinality;
  };
  const Pin pins[] = {
      {"er", &er, 0x9e3062d98a8db9d6ull, 16378},
      {"powerlaw", &powerlaw, 0x5acb9e0e61abae21ull, 16384},
      {"planted", &planted, 0xd7fc316849205d29ull, 16384},
      {"er 2-out", &er_2out, 0xb320842d7d6f7d3eull, 16378},
      {"powerlaw 2-out", &powerlaw_2out, 0xddbfd3d47ab45121ull, 16384},
      {"planted 2-out", &planted_2out, 0x553703323d70334dull, 16384},
      {"er deg 4 seed 1", &deficient1, 0xb754384ccdb7afccull, 16004},
      {"er deg 4 seed 2", &deficient2, 0x2825f7409fd9fa29ull, 16026},
  };
  Workspace ws;
  for (const Pin& pin : pins) {
    Matching m;
    push_relabel_ws(*pin.g, ws, m);  // warm workspace after the first pin
    EXPECT_EQ(testing::bit_fingerprint(m.row_match), pin.row_match_fingerprint) << pin.what;
    EXPECT_EQ(m.cardinality(), pin.cardinality) << pin.what;
  }
}

} // namespace
} // namespace bmh
