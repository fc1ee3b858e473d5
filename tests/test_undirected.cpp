/// Tests for the undirected extension (paper §5 future work): symmetric
/// scaling, one-out Karp-Sipser with odd cycles, the heuristic pipeline,
/// and agreement with a brute-force oracle on small graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/workspace.hpp"
#include "engine/registry.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/transform.hpp"
#include "matching/push_relabel.hpp"
#include "test_helpers.hpp"
#include "undirected/graph.hpp"
#include "undirected/matching.hpp"
#include "util/threading.hpp"

namespace bmh {
namespace {

/// Exhaustive maximum matching on a small undirected graph.
vid_t brute_force(const UndirectedGraph& g) {
  std::vector<bool> used(static_cast<std::size_t>(g.num_vertices()), false);
  auto rec = [&](auto&& self, vid_t u) -> vid_t {
    if (u == g.num_vertices()) return 0;
    if (used[static_cast<std::size_t>(u)]) return self(self, u + 1);
    vid_t best = self(self, u + 1);  // leave u unmatched
    used[static_cast<std::size_t>(u)] = true;
    for (const vid_t v : g.neighbors(u)) {
      if (v < u || used[static_cast<std::size_t>(v)]) continue;
      used[static_cast<std::size_t>(v)] = true;
      best = std::max(best, static_cast<vid_t>(1 + self(self, u + 1)));
      used[static_cast<std::size_t>(v)] = false;
    }
    used[static_cast<std::size_t>(u)] = false;
    return best;
  };
  return rec(rec, 0);
}

TEST(UndirectedGraph, FromEdgesSymmetrizesAndDedups) {
  const UndirectedGraph g = UndirectedGraph::from_edges(4, {{0, 1}, {1, 0}, {2, 3}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(3, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(UndirectedGraph, RejectsSelfLoopsAndBadIds) {
  EXPECT_THROW((void)UndirectedGraph::from_edges(3, {{1, 1}}), std::invalid_argument);
  EXPECT_THROW((void)UndirectedGraph::from_edges(3, {{0, 3}}), std::out_of_range);
}

TEST(UndirectedGraph, AsBipartiteIsSymmetric) {
  const UndirectedGraph g = make_undirected_erdos_renyi(50, 120, 3);
  const BipartiteGraph b = g.as_bipartite();
  EXPECT_EQ(b.num_rows(), 50);
  for (vid_t u = 0; u < 50; ++u)
    for (const vid_t v : b.row_neighbors(u)) EXPECT_TRUE(b.has_edge(v, u));
}

TEST(UndirectedGenerators, ShapesAreCorrect) {
  EXPECT_EQ(make_undirected_cycle(7).num_edges(), 7);
  EXPECT_EQ(make_undirected_path(7).num_edges(), 6);
  EXPECT_EQ(make_undirected_complete(6).num_edges(), 15);
  for (vid_t u = 0; u < 7; ++u) EXPECT_EQ(make_undirected_cycle(7).degree(u), 2);
}

TEST(SymmetricScaling, CycleConvergesToHalf) {
  const UndirectedGraph g = make_undirected_cycle(40);
  const SymmetricScaling s = scale_symmetric(g, 50);
  EXPECT_LT(s.error, 1e-6);
  // 2-regular: the doubly stochastic limit has every scaled entry 1/2.
  for (vid_t u = 0; u < 40; ++u)
    for (const vid_t v : g.neighbors(u))
      EXPECT_NEAR(s.d[static_cast<std::size_t>(u)] * s.d[static_cast<std::size_t>(v)],
                  0.5, 1e-6);
}

TEST(SymmetricScaling, CompleteGraphUniform) {
  const UndirectedGraph g = make_undirected_complete(10);
  const SymmetricScaling s = scale_symmetric(g, 30);
  // K_10 has degree 9; limit entry 1/9.
  EXPECT_NEAR(s.d[0] * s.d[1], 1.0 / 9.0, 1e-6);
}

TEST(SymmetricScaling, ErrorDecreases) {
  const UndirectedGraph g = make_undirected_erdos_renyi(2000, 6000, 5);
  const double e1 = scale_symmetric(g, 1).error;
  const double e10 = scale_symmetric(g, 10).error;
  EXPECT_LT(e10, e1);
}

TEST(SampleChoices, PicksAreNeighbors) {
  const UndirectedGraph g = make_undirected_erdos_renyi(500, 1500, 7);
  const SymmetricScaling s = scale_symmetric(g, 5);
  const std::vector<vid_t> choice = sample_choices(g, s.d, 11);
  for (vid_t u = 0; u < 500; ++u) {
    if (g.degree(u) == 0) {
      EXPECT_EQ(choice[static_cast<std::size_t>(u)], kNil);
    } else {
      EXPECT_TRUE(g.has_edge(u, choice[static_cast<std::size_t>(u)]));
    }
  }
  EXPECT_EQ(choice, sample_choices(g, s.d, 11));  // deterministic
}

TEST(OneOutKarpSipser, OddCycleLeavesExactlyOneFree) {
  // choice forms a single directed 5-cycle: 0->1->2->3->4->0.
  std::vector<vid_t> choice = {1, 2, 3, 4, 0};
  const UndirectedMatching m = one_out_karp_sipser(5, choice);
  EXPECT_EQ(m.cardinality(), 2);  // floor(5/2)
}

TEST(OneOutKarpSipser, EvenCycleFullyMatched) {
  std::vector<vid_t> choice = {1, 2, 3, 0};
  const UndirectedMatching m = one_out_karp_sipser(4, choice);
  EXPECT_EQ(m.cardinality(), 2);
}

TEST(OneOutKarpSipser, ChainWithReciprocalEnd) {
  // 0->1, 1<->2: a path; maximum matching = 1 pair + ... edges {0,1},{1,2};
  // max matching on path of 3 vertices is 1.
  std::vector<vid_t> choice = {1, 2, 1};
  const UndirectedMatching m = one_out_karp_sipser(3, choice);
  EXPECT_EQ(m.cardinality(), 1);
}

TEST(OneOutKarpSipser, IsolatedVerticesHandled) {
  std::vector<vid_t> choice = {kNil, kNil, 3, 2};
  const UndirectedMatching m = one_out_karp_sipser(4, choice);
  EXPECT_EQ(m.cardinality(), 1);
}

TEST(OneOutKarpSipser, MatePinnedAcrossVersions) {
  // Golden values captured before the bipartite and undirected kernels
  // shared one out-one chain phase. Phase 1's races may pair different
  // vertices on several threads, so the mate array is pinned at one thread
  // and the cardinality (exact on the choice subgraph) at every count.
  UndirectedGraph er, planted, sparse;
  er.assign_bipartite_union(make_erdos_renyi(1 << 14, 1 << 14, 8 << 14, 11));
  planted.assign_bipartite_union(make_planted_perfect(1 << 14, 7, 13));
  sparse.assign_bipartite_union(make_erdos_renyi(4096, 5000, 4096, 14));
  const UndirectedGraph odd = make_undirected_erdos_renyi(1 << 14, 3 << 14, 5);
  struct Pin {
    const UndirectedGraph* g;
    std::uint64_t seed;
    std::uint64_t mate_fingerprint;
    vid_t cardinality;
  };
  const Pin pins[] = {
      {&er, 1, 0x7b3ed6065dde03faull, 14255},
      {&er, 2, 0xe41f62680c2e9299ull, 14251},
      {&er, 3, 0x67f399abe23f32a1ull, 14296},
      {&planted, 1, 0xf46e5930e3733062ull, 14282},
      {&planted, 2, 0x30101bac77d49b9aull, 14236},
      {&planted, 3, 0x129d9ecabed6f146ull, 14235},
      {&sparse, 1, 0x9a1a650c1602d1c4ull, 2301},
      {&sparse, 2, 0xe275358da38db579ull, 2302},
      {&sparse, 3, 0x35962aa8790891ddull, 2304},
      {&odd, 1, 0x8a13e3447315aca5ull, 7125},
      {&odd, 2, 0xfa9b3b4199b4c064ull, 7150},
      {&odd, 3, 0xab840ec7e4808780ull, 7091},
  };
  for (const Pin& pin : pins) {
    const SymmetricScaling s = scale_symmetric(*pin.g, 5);
    const std::vector<vid_t> choice = sample_choices(*pin.g, s.d, pin.seed);
    const UndirectedMatching m = one_out_karp_sipser(pin.g->num_vertices(), choice);
    const std::string where = "edges " + std::to_string(pin.g->num_edges()) + ", seed " +
                              std::to_string(pin.seed);
    if (max_threads() == 1) {
      EXPECT_EQ(testing::bit_fingerprint(m.mate), pin.mate_fingerprint) << where;
    }
    EXPECT_EQ(m.cardinality(), pin.cardinality) << where;
  }
}

TEST(OneOutKarpSipser, OutOfRangeChoiceThrows) {
  // Each entry must be kNil or a vertex id: a larger id or any other
  // negative one would index past the phase arrays.
  const std::vector<vid_t> too_large = {5, kNil};
  EXPECT_THROW((void)one_out_karp_sipser(2, too_large), std::invalid_argument);
  const std::vector<vid_t> negative = {kNil, -2};
  EXPECT_THROW((void)one_out_karp_sipser(2, negative), std::invalid_argument);
  const std::vector<vid_t> at_n = {1, 2};
  EXPECT_THROW((void)one_out_karp_sipser(2, at_n), std::invalid_argument);
}

class UndirectedOneOutExactness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UndirectedOneOutExactness, MatchesBruteForceOnChoiceSubgraph) {
  // one_out_karp_sipser must deliver a MAXIMUM matching of the functional
  // subgraph {{u, choice[u]}}; compare with brute force on small graphs.
  const std::uint64_t seed = GetParam();
  const vid_t n = 14;
  const UndirectedGraph g = make_undirected_erdos_renyi(n, 3 * n, seed);
  const SymmetricScaling s = scale_symmetric(g, 3);
  const std::vector<vid_t> choice = sample_choices(g, s.d, seed + 7);

  std::vector<std::pair<vid_t, vid_t>> sub_edges;
  for (vid_t u = 0; u < n; ++u)
    if (choice[static_cast<std::size_t>(u)] != kNil)
      sub_edges.emplace_back(u, choice[static_cast<std::size_t>(u)]);
  const UndirectedGraph sub = UndirectedGraph::from_edges(n, sub_edges);

  const UndirectedMatching m = one_out_karp_sipser(n, choice);
  EXPECT_TRUE(is_valid_matching(sub, m)) << describe_violation(sub, m);
  EXPECT_EQ(m.cardinality(), brute_force(sub)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, UndirectedOneOutExactness,
                         ::testing::Range<std::uint64_t>(0, 30));

TEST(UndirectedOneOutMatch, ValidAndNearConjectureOnRandomGraphs) {
  const UndirectedGraph g = make_undirected_erdos_renyi(20000, 100000, 3);
  const UndirectedMatching m = undirected_one_out_match(g, 5, 7);
  EXPECT_TRUE(is_valid_matching(g, m)) << describe_violation(g, m);
  // Yardstick: a matching with no length-3 augmenting path is >= 2/3 of
  // optimal, so opt <= 1.5 * |two_thirds|. The one-out heuristic should
  // reach ~0.86 of optimal on such dense-enough random graphs.
  const UndirectedMatching yard = undirected_two_thirds(g, 7);
  const double upper = 1.5 * static_cast<double>(yard.cardinality());
  EXPECT_GE(static_cast<double>(m.cardinality()), 0.80 * static_cast<double>(yard.cardinality()));
  EXPECT_LE(static_cast<double>(m.cardinality()), upper);
}

TEST(UndirectedOneOutMatch, CardinalityThreadCountInvariant) {
  const UndirectedGraph g = make_undirected_erdos_renyi(10000, 40000, 9);
  const SymmetricScaling s = scale_symmetric(g, 3);
  const std::vector<vid_t> choice = sample_choices(g, s.d, 5);
  vid_t reference = -1;
  for (const int t : {1, 2, 4, 8}) {
    ThreadCountGuard guard(t);
    const vid_t card = one_out_karp_sipser(g.num_vertices(), choice).cardinality();
    if (reference < 0) reference = card;
    EXPECT_EQ(card, reference) << "threads " << t;
  }
}

TEST(UndirectedGreedy, ValidAndMaximalish) {
  const UndirectedGraph g = make_undirected_erdos_renyi(2000, 8000, 1);
  const UndirectedMatching m = undirected_greedy(g, 3);
  EXPECT_TRUE(is_valid_matching(g, m));
  // No edge with two free endpoints may remain.
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    if (m.matched(u)) continue;
    for (const vid_t v : g.neighbors(u)) EXPECT_TRUE(m.matched(v));
  }
}

TEST(UndirectedTwoThirds, AgreesWithBruteForceWithinFactor) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    const UndirectedGraph g = make_undirected_erdos_renyi(12, 24, seed);
    const UndirectedMatching m = undirected_two_thirds(g, seed);
    EXPECT_TRUE(is_valid_matching(g, m));
    const vid_t opt = brute_force(g);
    EXPECT_GE(3 * m.cardinality(), 2 * opt) << "seed " << seed;
  }
}

TEST(UndirectedMatching, PathAndCycleOptima) {
  // P_6: optimum 3 edges... wait P_6 has 6 vertices and 5 edges -> max 3.
  const UndirectedGraph p6 = make_undirected_path(6);
  EXPECT_EQ(brute_force(p6), 3);
  const UndirectedMatching mp = undirected_one_out_match(p6, 3, 1);
  EXPECT_TRUE(is_valid_matching(p6, mp));
  // C_7 (odd cycle): optimum 3.
  const UndirectedGraph c7 = make_undirected_cycle(7);
  EXPECT_EQ(brute_force(c7), 3);
  const UndirectedMatching mc = undirected_one_out_match(c7, 10, 1);
  EXPECT_TRUE(is_valid_matching(c7, mc));
  EXPECT_LE(mc.cardinality(), 3);
  EXPECT_GE(mc.cardinality(), 2);
}

TEST(UndirectedConversion, SymmetricViewOfAdjacencyRoundTrips) {
  // as_bipartite() of an undirected graph is square pattern-symmetric with
  // no diagonal; its symmetric view must reproduce the original graph.
  const UndirectedGraph g = make_undirected_erdos_renyi(60, 150, 4);
  const BipartiteGraph b = g.as_bipartite();
  ASSERT_TRUE(is_pattern_symmetric(b));
  UndirectedGraph view;
  view.assign_symmetric_view(b);
  ASSERT_EQ(view.num_vertices(), g.num_vertices());
  EXPECT_EQ(view.num_edges(), g.num_edges());
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    const auto nb = view.neighbors(u);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));  // has_edge contract
    for (const vid_t v : g.neighbors(u)) EXPECT_TRUE(view.has_edge(u, v));
  }
}

TEST(UndirectedConversion, SymmetricViewDropsDiagonal) {
  // Square pattern-symmetric with diagonal entries: 2x2 full.
  const BipartiteGraph b = graph_from_rows(2, 2, {{0, 1}, {0, 1}});
  ASSERT_TRUE(is_pattern_symmetric(b));
  UndirectedGraph view;
  view.assign_symmetric_view(b);
  EXPECT_EQ(view.num_edges(), 1);  // only the off-diagonal pair survives
  EXPECT_TRUE(view.has_edge(0, 1));
  EXPECT_FALSE(view.has_edge(0, 0));
}

TEST(UndirectedConversion, BipartiteUnionPreservesMatchingNumber) {
  const BipartiteGraph b = make_erdos_renyi(14, 10, 40, 6);
  UndirectedGraph u;
  u.assign_bipartite_union(b);
  ASSERT_EQ(u.num_vertices(), 24);
  EXPECT_EQ(u.num_edges(), static_cast<eid_t>(b.num_edges()));
  // Every union edge crosses sides and mirrors a bipartite edge.
  for (vid_t r = 0; r < 14; ++r) {
    const auto nb = u.neighbors(r);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    for (const vid_t v : nb) {
      ASSERT_GE(v, 14);
      EXPECT_TRUE(b.has_edge(r, v - 14));
    }
  }
  // The undirected matching number of the union IS the bipartite one.
  EXPECT_EQ(brute_force(u), sprank(b));
}

TEST(UndirectedWs, WorkspaceOverloadsMatchClassicResults) {
  // Both sides at one OpenMP thread: above that the one-out kernels race by
  // design (concurrent vertex claims), so two runs are only bit-comparable
  // serially.
  ThreadCountGuard serial(1);
  const UndirectedGraph g = make_undirected_erdos_renyi(400, 1200, 17);
  Workspace ws;

  SymmetricScaling s_ws;
  scale_symmetric_ws(g, 8, ws, s_ws);
  const SymmetricScaling s = scale_symmetric(g, 8);
  EXPECT_EQ(s_ws.d, s.d);
  EXPECT_EQ(s_ws.iterations, s.iterations);
  EXPECT_EQ(s_ws.error, s.error);

  const std::vector<vid_t>& choice_ws = sample_choices_ws(g, s_ws.d, 23, ws);
  EXPECT_EQ(choice_ws, sample_choices(g, s.d, 23));

  UndirectedMatching m_ws;
  one_out_karp_sipser_ws(g.num_vertices(), choice_ws, ws, m_ws);
  EXPECT_EQ(m_ws.mate, one_out_karp_sipser(g.num_vertices(), choice_ws).mate);

  UndirectedMatching one_ws;
  undirected_one_out_match_ws(g, 5, 23, ws, one_ws);
  EXPECT_EQ(one_ws.mate, undirected_one_out_match(g, 5, 23).mate);

  UndirectedMatching greedy_ws;
  undirected_greedy_ws(g, 23, ws, greedy_ws);
  EXPECT_EQ(greedy_ws.mate, undirected_greedy(g, 23).mate);

  UndirectedMatching thirds_ws;
  undirected_two_thirds_ws(g, 23, ws, thirds_ws);
  EXPECT_EQ(thirds_ws.mate, undirected_two_thirds(g, 23).mate);
}

TEST(UndirectedRegistry, NamesAndDispatch) {
  const std::vector<std::string> names = registered_undirected_algorithm_names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "greedy");
  EXPECT_EQ(names[1], "one_out");
  EXPECT_EQ(names[2], "two_thirds");
  EXPECT_THROW((void)find_undirected_algorithm("nope"), std::invalid_argument);

  // Dispatch through the table reproduces the direct _ws call.
  const UndirectedGraph g = make_undirected_erdos_renyi(300, 900, 2);
  Workspace ws;
  AlgorithmOptions options;
  options.seed = 11;
  UndirectedMatching via_table;
  UndirectedRunInfo info;
  find_undirected_algorithm("two_thirds").run(g, 0, options, ws, via_table, info);
  UndirectedMatching direct;
  undirected_two_thirds_ws(g, 11, ws, direct);
  EXPECT_EQ(via_table.mate, direct.mate);
}

TEST(UndirectedRegistry, OneOutReportsItsScaling) {
  // The one_out row reports the scaling undirected_one_out_match_ws ran.
  // One OpenMP thread: the one-out kernels race by design above that.
  ThreadCountGuard serial(1);
  const UndirectedGraph g = make_undirected_erdos_renyi(300, 900, 4);
  Workspace ws;
  AlgorithmOptions options;
  options.seed = 3;
  UndirectedMatching via_table;
  UndirectedRunInfo info;
  find_undirected_algorithm("one_out").run(g, 5, options, ws, via_table, info);
  EXPECT_EQ(via_table.mate, undirected_one_out_match(g, 5, 3).mate);
  const SymmetricScaling s = scale_symmetric(g, 5);
  EXPECT_EQ(info.scaling_iterations, s.iterations);
  EXPECT_EQ(info.scaling_error, s.error);

  UndirectedRunInfo unscaled;
  find_undirected_algorithm("one_out").run(g, 0, options, ws, via_table, unscaled);
  EXPECT_EQ(unscaled.scaling_iterations, 0);
  EXPECT_EQ(unscaled.scaling_error, 0.0);
}

} // namespace
} // namespace bmh
