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
#include "util/rng.hpp"
#include "util/threading.hpp"

namespace bmh {
namespace {

template <typename T>
std::vector<T> to_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

/// All four arrays equal, CSR and CSC.
void expect_same_arrays(const BipartiteGraph& got, const BipartiteGraph& want,
                        const std::string& what) {
  EXPECT_EQ(got.num_rows(), want.num_rows()) << what;
  EXPECT_EQ(got.num_cols(), want.num_cols()) << what;
  EXPECT_EQ(to_vector(got.row_ptr()), to_vector(want.row_ptr())) << what;
  EXPECT_EQ(to_vector(got.col_idx()), to_vector(want.col_idx())) << what;
  EXPECT_EQ(to_vector(got.col_ptr()), to_vector(want.col_ptr())) << what;
  EXPECT_EQ(to_vector(got.row_idx()), to_vector(want.row_idx())) << what;
}

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
  const ScalingResult s = scale_sinkhorn_knopp(g, {3, 0.0});
  // The pooled path, twice on one workspace: the second build reuses the
  // builder's histograms and the graph's vectors.
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

TEST(ParallelBuild, CountScatterIsAStableSortAtAnyTeam) {
  // 100003 items over 1000 keys: no team size divides either count, and
  // some keys stay empty.
  const std::size_t n = 100003;
  const std::size_t keys = 1000;
  std::vector<vid_t> key(n);
  Rng rng(19);
  for (vid_t& k : key) k = static_cast<vid_t>(rng.next_below(keys - 10));
  const auto visit = [&key](std::size_t begin, std::size_t end, auto&& sink) {
    for (std::size_t i = begin; i < end; ++i) sink(key[i], static_cast<vid_t>(i));
  };
  std::vector<eid_t> offsets(keys + 1);
  std::vector<vid_t> out(n);
  DefaultInitVector<eid_t> hist;
  count_scatter(
      n, keys, [&key](std::size_t i) { return key[i]; }, visit, std::span<eid_t>(offsets),
      std::span<vid_t>(out), hist);

  std::vector<vid_t> want(n);
  std::iota(want.begin(), want.end(), 0);
  std::stable_sort(want.begin(), want.end(),
                   [&key](vid_t a, vid_t b) { return key[a] < key[b]; });
  EXPECT_EQ(out, want);
  for (std::size_t k = 0; k < keys; ++k)
    for (eid_t p = offsets[k]; p < offsets[k + 1]; ++p)
      ASSERT_EQ(static_cast<std::size_t>(key[static_cast<std::size_t>(out[p])]), k) << p;
  EXPECT_EQ(offsets.front(), 0);
  EXPECT_EQ(offsets.back(), static_cast<eid_t>(n));
  EXPECT_LE(hist.size(), n);
}

TEST(ParallelBuild, WideSparseGraphsTakeNoTeamByColumnsScratch) {
  // 2^16 edges over 2^21 columns: team x columns histograms would be
  // 32 times the edge count, so the scatter runs on one thread.
  const vid_t cols = 1 << 21;
  EXPECT_EQ(count_scatter_team(kN, static_cast<std::size_t>(cols)), 1);
  std::vector<vid_t> key(kN);
  Rng rng(23);
  for (vid_t& k : key) k = static_cast<vid_t>(rng.next_below(cols));
  std::vector<eid_t> offsets(static_cast<std::size_t>(cols) + 1);
  std::vector<vid_t> out(kN);
  DefaultInitVector<eid_t> hist;
  count_scatter(
      kN, static_cast<std::size_t>(cols), [&key](std::size_t i) { return key[i]; },
      [&key](std::size_t begin, std::size_t end, auto&& sink) {
        for (std::size_t i = begin; i < end; ++i) sink(key[i], static_cast<vid_t>(i));
      },
      std::span<eid_t>(offsets), std::span<vid_t>(out), hist);
  EXPECT_EQ(hist.capacity(), 0u);

  // The same shape through the builder and the CSC, on the ambient team.
  expect_team_invariant(
      [&key, cols] {
        GraphBuilder b(kN, cols);
        for (vid_t i = 0; i < kN; ++i) b.add_edge(i, key[static_cast<std::size_t>(i)]);
        return b.build();
      },
      "wide");
}

/// A valid CSR above the cutoff: kN rows of 2 ascending columns each.
struct Csr {
  std::vector<eid_t> row_ptr;
  std::vector<vid_t> col_idx;
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
