/// Graph construction on the OpenMP team: count_scatter, GraphBuilder, the
/// CSC build and CSR validation must give the same arrays, and the same
/// errors, at any team size. The instances are large enough to take the
/// parallel branches (kParallelMinItems items), which the small graphs of
/// most other tests never reach; ctest runs this binary at
/// OMP_NUM_THREADS 1, 2 and 4, and each test compares the ambient team with
/// a one-thread run.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/k_out.hpp"
#include "core/workspace.hpp"
#include "graph/builder.hpp"
#include "graph/count_scatter.hpp"
#include "graph/generators.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/threading.hpp"

namespace bmh {
namespace {

using testing::run_ws;

using testing::expect_same_arrays;

/// Builds with `make` on the ambient team and on one thread.
template <typename Make>
void expect_team_invariant(const Make& make, const std::string& what) {
  const BipartiteGraph got = make();
  BipartiteGraph want;
  {
    ThreadCountGuard one(1);
    want = make();
  }
  ASSERT_GE(static_cast<std::size_t>(got.num_edges()), kParallelMinItems) << what;
  expect_same_arrays(got, want, what);
}

constexpr vid_t kN = 1 << 16;

TEST(ParallelBuild, GeneratorsMatchTheOneThreadBuild) {
  expect_team_invariant([] { return make_erdos_renyi(kN, kN, 8LL * kN, 3); }, "er");
  expect_team_invariant([] { return make_planted_perfect(kN, 3, 5); }, "planted");
  expect_team_invariant([] { return make_power_law(kN, 6.0, 2.5, 7); }, "powerlaw");
}

TEST(ParallelBuild, KOutSubgraphMatchesTheOneThreadBuild) {
  const BipartiteGraph g = make_erdos_renyi(kN, kN, 8LL * kN, 11);
  const ScalingResult s = run_ws(scale_sinkhorn_knopp_ws, g, ScalingOptions{3, 0.0});
  // The pooled path, twice on one workspace: the second build reuses the
  // graph's vectors.
  Workspace ws;
  BipartiteGraph pooled;
  for (const std::uint64_t seed : {13u, 17u}) {
    k_out_subgraph_ws(g, s, 2, seed, ws, pooled);
    BipartiteGraph want;
    {
      ThreadCountGuard one(1);
      Workspace fresh;
      k_out_subgraph_ws(g, s, 2, seed, fresh, want);
    }
    ASSERT_GE(static_cast<std::size_t>(pooled.num_edges()), kParallelMinItems);
    expect_same_arrays(pooled, want, "k_out seed " + std::to_string(seed));
  }
}

/// count_scatter of items whose values are their indices, at teams 1 to 4,
/// against std::stable_sort of the indices by key: the same values, the
/// same offsets, and counters within the item count; and the same sort
/// placed in place over its own input, as GraphBuilder runs it.
void expect_stable_sort(const std::vector<vid_t>& key, std::size_t num_keys,
                        const std::string& what) {
  const std::size_t n = key.size();
  std::vector<vid_t> want(n);
  std::iota(want.begin(), want.end(), 0);
  std::stable_sort(want.begin(), want.end(),
                   [&key](vid_t a, vid_t b) { return key[a] < key[b]; });
  std::vector<eid_t> want_offsets(num_keys + 1, 0);
  for (const vid_t k : key) ++want_offsets[static_cast<std::size_t>(k) + 1];
  std::partial_sum(want_offsets.begin(), want_offsets.end(), want_offsets.begin());

  const auto visit = [&key](std::size_t begin, std::size_t end, auto&& sink) {
    for (std::size_t i = begin; i < end; ++i) sink(key[i], static_cast<vid_t>(i));
  };
  for (int team = 1; team <= 4; ++team) {
    ThreadCountGuard guard(team);
    std::vector<eid_t> offsets(num_keys + 1, -1);
    std::vector<vid_t> out(n, kNil);
    DefaultInitVector<eid_t> counts;
    DefaultInitVector<Edge> staging;
    count_scatter(
        n, num_keys, [&key](std::size_t i) { return key[i]; }, visit, std::span<eid_t>(offsets),
        [&out](std::size_t at, vid_t, vid_t value) { out[at] = value; }, counts, staging);
    EXPECT_EQ(out, want) << what << ", team " << team;
    EXPECT_EQ(offsets, want_offsets) << what << ", team " << team;
    EXPECT_LE(counts.size(), n) << what << ", team " << team;

    std::vector<Edge> items(n);
    for (std::size_t i = 0; i < n; ++i) items[i] = Edge{key[i], static_cast<vid_t>(i)};
    count_scatter(
        n, num_keys, [&items](std::size_t i) { return items[i].row; },
        [&items](std::size_t begin, std::size_t end, auto&& sink) {
          for (std::size_t i = begin; i < end; ++i) sink(items[i].row, items[i].col);
        },
        std::span<eid_t>(offsets),
        [&items](std::size_t at, vid_t k, vid_t value) { items[at] = Edge{k, value}; }, counts,
        staging);
    for (std::size_t i = 0; i < n; ++i) out[i] = items[i].col;
    EXPECT_EQ(out, want) << what << " in place, team " << team;
    EXPECT_EQ(offsets, want_offsets) << what << " in place, team " << team;
  }
}

std::vector<vid_t> random_keys(std::size_t n, std::size_t num_keys, std::uint64_t seed) {
  std::vector<vid_t> key(n);
  Rng rng(seed);
  for (vid_t& k : key) k = static_cast<vid_t>(rng.next_below(num_keys));
  return key;
}

TEST(ParallelBuild, CountScatterIsAStableSortAtAnyTeam) {
  // 100003 items over 1000 keys: no team size divides either count, and
  // the last keys stay empty.
  const std::size_t n = 100003;
  const std::size_t keys = 1000;
  expect_stable_sort(random_keys(n, keys - 10, 19), keys, "random");

  // Already in key order, with empty keys at both ends and between: the
  // identity path. A single descent where two slices meet (half of the
  // input at teams 2 and 4) must send it down the sorting path.
  std::vector<vid_t> sorted = random_keys(n, keys - 20, 29);
  for (vid_t& k : sorted) k += 10;
  std::sort(sorted.begin(), sorted.end());
  expect_stable_sort(sorted, keys, "sorted");
  std::swap(sorted[n / 2 - 1], sorted[n / 2]);
  sorted[n / 2 - 1] = sorted[n / 2] + 1;
  expect_stable_sort(sorted, keys, "sorted but at the middle");

  // One hot key holds all but a few items, so one block does the work.
  std::vector<vid_t> hot(n, 517);
  for (std::size_t i = 0; i < n; i += 997) hot[i] = static_cast<vid_t>(i % keys);
  expect_stable_sort(hot, keys, "one hot key");

  // Far more keys than items: 2^21 keys over 2^16 items.
  expect_stable_sort(random_keys(std::size_t{1} << 16, std::size_t{1} << 21, 31),
                     std::size_t{1} << 21, "keys >> items");

  // Just below the cutoff (the serial loop at every team) and just above.
  expect_stable_sort(random_keys(kParallelMinItems - 1, 5000, 37), 5000, "below the cutoff");
  expect_stable_sort(random_keys(kParallelMinItems + 1, 5000, 41), 5000, "above the cutoff");
}

TEST(ParallelBuild, WideSparseGraphsTakeNoTeamByColumnsScratch) {
  // 2^16 edges over 2^21 columns: team x columns histograms would be 32
  // times the edge count. The key-block sort keeps its counters within the
  // item count and stages in the caller's buffer when it is large enough.
  const vid_t cols = 1 << 21;
  const std::vector<vid_t> key = random_keys(kN, static_cast<std::size_t>(cols), 23);
  std::vector<eid_t> offsets(static_cast<std::size_t>(cols) + 1);
  std::vector<vid_t> out(kN);
  DefaultInitVector<eid_t> counts;
  DefaultInitVector<Edge> staging(kN);
  const Edge* const staged = staging.data();
  count_scatter(
      kN, static_cast<std::size_t>(cols), [&key](std::size_t i) { return key[i]; },
      [&key](std::size_t begin, std::size_t end, auto&& sink) {
        for (std::size_t i = begin; i < end; ++i) sink(key[i], static_cast<vid_t>(i));
      },
      std::span<eid_t>(offsets), [&out](std::size_t at, vid_t, vid_t value) { out[at] = value; },
      counts, staging);
  EXPECT_LE(counts.capacity(), static_cast<std::size_t>(kN));
  EXPECT_EQ(staging.data(), staged);
  EXPECT_EQ(staging.size(), static_cast<std::size_t>(kN));

  // The same shape through the builder and the CSC, on the ambient team.
  expect_team_invariant(
      [&key, cols] {
        GraphBuilder b(kN, cols);
        for (vid_t i = 0; i < kN; ++i) b.add_edge(i, key[static_cast<std::size_t>(i)]);
        return b.build();
      },
      "wide");
}

TEST(ParallelBuild, DuplicatesAcrossThreadSlicesCollapseAtAnyTeam) {
  // 2 kN random edges, a quarter of them in row kN / 2, then the same edges
  // reversed, so every edge's repeat lies in the other half of the buffer,
  // across a slice boundary at every team from 2 to 4. Stably ordered by
  // row, the same buffer takes count_scatter's identity path, and the hot
  // row spans the middle of it. Either way the graph holds each edge once.
  Rng rng(43);
  std::vector<Edge> edges(2 * static_cast<std::size_t>(kN));
  for (std::size_t e = 0; e < edges.size(); ++e)
    edges[e] = {e % 4 == 0 ? kN / 2 : static_cast<vid_t>(rng.next_below(kN)),
                static_cast<vid_t>(rng.next_below(kN))};
  edges.insert(edges.end(), edges.rbegin(), edges.rend());
  std::vector<Edge> by_row = edges;
  std::stable_sort(by_row.begin(), by_row.end(),
                   [](const Edge& a, const Edge& b) { return a.row < b.row; });

  std::vector<std::set<vid_t>> rows(kN);
  for (const Edge& e : edges) rows[static_cast<std::size_t>(e.row)].insert(e.col);
  DefaultInitVector<eid_t> row_ptr(1, 0);
  DefaultInitVector<vid_t> col_idx;
  for (const auto& row : rows) {
    col_idx.insert(col_idx.end(), row.begin(), row.end());
    row_ptr.push_back(static_cast<eid_t>(col_idx.size()));
  }
  BipartiteGraph want;
  {
    ThreadCountGuard one(1);
    want = BipartiteGraph(kN, kN, std::move(row_ptr), std::move(col_idx));
  }
  for (const std::vector<Edge>* input : {&edges, &by_row}) {
    const std::string what = input == &edges ? "repeats mirrored" : "row order";
    for (int team = 1; team <= 4; ++team) {
      ThreadCountGuard guard(team);
      GraphBuilder b(kN, kN);
      const std::span<Edge> slots = b.append_edges(input->size());
      std::copy(input->begin(), input->end(), slots.begin());
      expect_same_arrays(b.build(), want, what + ", team " + std::to_string(team));
    }
  }
}

/// A valid CSR above the cutoff: kN rows of 2 ascending columns each.
struct Csr {
  DefaultInitVector<eid_t> row_ptr;
  DefaultInitVector<vid_t> col_idx;
};

Csr two_per_row() {
  Csr c;
  c.row_ptr.resize(static_cast<std::size_t>(kN) + 1);
  for (vid_t i = 0; i <= kN; ++i) c.row_ptr[static_cast<std::size_t>(i)] = 2 * i;
  for (vid_t i = 0; i < kN; ++i) {  // row i holds columns i and i + 1, wrapped
    const vid_t next = (i + 1) % kN;
    c.col_idx.push_back(std::min(i, next));
    c.col_idx.push_back(std::max(i, next));
  }
  return c;
}

std::string rejection(Csr c) {
  try {
    (void)BipartiteGraph(kN, kN, std::move(c.row_ptr), std::move(c.col_idx));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

TEST(ParallelBuild, MalformedCsrAboveTheCutoffThrowsTheSameMessages) {
  ASSERT_GE(2 * static_cast<std::size_t>(kN), kParallelMinItems);
  EXPECT_EQ(rejection(two_per_row()), "accepted");

  Csr duplicate = two_per_row();  // the last row lists one column twice
  duplicate.col_idx.back() = duplicate.col_idx[duplicate.col_idx.size() - 2];
  EXPECT_EQ(rejection(duplicate),
            "BipartiteGraph: column ids within a row not strictly ascending "
            "(unsorted or duplicate edge)");

  Csr out_of_range = two_per_row();  // a middle row ends past the last column
  out_of_range.col_idx[2 * static_cast<std::size_t>(kN / 2) + 1] = kN;
  EXPECT_EQ(rejection(out_of_range), "BipartiteGraph: column id out of range");
  Csr last_out_of_range = two_per_row();  // and so does the last row
  last_out_of_range.col_idx.back() = kN;
  EXPECT_EQ(rejection(last_out_of_range), "BipartiteGraph: column id out of range");

  Csr descending = two_per_row();  // a row_ptr entry above its successor
  descending.row_ptr[static_cast<std::size_t>(kN / 3)] = 2 * (kN / 3) + 3;
  EXPECT_EQ(rejection(descending), "BipartiteGraph: row_ptr not monotone");

  // The same verdicts on one thread.
  ThreadCountGuard one(1);
  EXPECT_EQ(rejection(duplicate),
            "BipartiteGraph: column ids within a row not strictly ascending "
            "(unsorted or duplicate edge)");
  EXPECT_EQ(rejection(out_of_range), "BipartiteGraph: column id out of range");
  EXPECT_EQ(rejection(last_out_of_range), "BipartiteGraph: column id out of range");
  EXPECT_EQ(rejection(descending), "BipartiteGraph: row_ptr not monotone");
}

TEST(ParallelBuild, OutOfRangeEdgesAboveTheCutoffThrow) {
  for (const Edge bad : {Edge{kN, 0}, Edge{0, kN}, Edge{-1, 0}, Edge{0, -1}}) {
    GraphBuilder b(kN, kN);
    const std::span<Edge> edges = b.append_edges(4 * static_cast<std::size_t>(kN));
    for (std::size_t e = 0; e < edges.size(); ++e)
      edges[e] = {static_cast<vid_t>(e % kN), static_cast<vid_t>((e * 7) % kN)};
    edges[edges.size() / 2] = bad;
    EXPECT_THROW((void)b.build(), std::out_of_range) << bad.row << "," << bad.col;
  }
}

} // namespace
} // namespace bmh
