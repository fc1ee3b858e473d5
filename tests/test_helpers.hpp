#pragma once
/// \file test_helpers.hpp
/// \brief Shared fixtures and helpers for the bmh test suite.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "bmh.hpp"
#include "util/hash.hpp"

#include "builders.hpp"

namespace bmh::testing {

/// Calls a kernel with a fresh Workspace and returns its output: the one
/// way the tests reach the `_ws` forms. `args` are the kernel's other
/// parameters, in order; the helper inserts the Workspace and the output
/// object right after it (a Matching, ScalingResult, BipartiteGraph, ...),
/// which it returns. Parameters after the output, such as
/// identity_scaling_ws's `compute_error`, take the remaining `args`
/// (defaults do not apply through the pointer). A kernel whose Workspace comes last (sprank_ws,
/// scaling_error_ws, sample_choices_ws) returns its result instead, copied
/// here before the Workspace goes. An out-parameter kernel without a
/// Workspace (sample_row_choices, unify_choices, ...) gets the output as its
/// last parameter.
template <typename R, typename... P, typename... A>
[[nodiscard]] auto run_ws(R (*kernel)(P...), A&&... args) {
  constexpr std::size_t kParams = sizeof...(P);
  constexpr bool kIsWorkspace[] = {std::is_same_v<P, Workspace&>..., false};
  // Where the Workspace sits; kParams when the kernel takes none.
  constexpr auto kWs = static_cast<std::size_t>(
      std::ranges::find(kIsWorkspace, true) - std::begin(kIsWorkspace));
  // How many of `args` go ahead of the inserted Workspace and output.
  constexpr std::size_t kBefore = kWs < kParams ? kWs : kParams - 1;
  static_assert(sizeof...(A) >= kBefore, "run_ws: too few arguments");
  auto in = std::forward_as_tuple(std::forward<A>(args)...);
  const auto call = [&]<std::size_t... I, std::size_t... J>(
                        std::index_sequence<I...>, std::index_sequence<J...>,
                        auto&... inserted) -> decltype(auto) {
    return kernel(std::get<I>(std::move(in))..., inserted...,
                  std::get<kBefore + J>(std::move(in))...);
  };
  constexpr auto before = std::make_index_sequence<kBefore>{};
  constexpr auto after = std::make_index_sequence<sizeof...(A) - kBefore>{};
  Workspace ws;
  if constexpr (kWs + 1 == kParams) {
    return std::remove_cvref_t<R>(call(before, after, ws));
  } else {
    constexpr std::size_t kOut = kWs < kParams ? kWs + 1 : kParams - 1;
    std::remove_cvref_t<std::tuple_element_t<kOut, std::tuple<P...>>> out{};
    if constexpr (kWs < kParams)
      call(before, after, ws, out);
    else
      call(before, after, out);
    return out;
  }
}

/// The engine's k_out job without the engine: the SK-or-identity scale
/// stage, then the `k_out` table row, its scaling leased from `ws` like the
/// rest of its scratch.
inline void run_k_out_ws(const BipartiteGraph& g, int scaling_iterations, int k,
                         std::uint64_t seed, Workspace& ws, Matching& out) {
  ScalingResult& scaling = ws.obj<ScalingResult>("test.kout.scaling");
  scale_sinkhorn_knopp_or_identity_ws(g, scaling_iterations, ws, scaling);
  AlgorithmOptions options;
  options.seed = seed;
  options.k = k;
  find_algorithm("k_out").run_ws(g, scaling, options, ws, out);
}

/// Checks that `m` is a valid matching of `g`: sizes agree, views are
/// mutually consistent, every matched pair is an edge of `g`, and no vertex
/// appears twice. Returns an empty string when valid, else a description of
/// the first violation. `is_valid_matching` makes the same checks.
[[nodiscard]] inline std::string describe_matching_violation(const BipartiteGraph& g,
                                                             const Matching& m) {
  std::ostringstream os;
  if (m.row_match.size() != static_cast<std::size_t>(g.num_rows())) {
    os << "row_match size " << m.row_match.size() << " != num_rows " << g.num_rows();
    return os.str();
  }
  if (m.col_match.size() != static_cast<std::size_t>(g.num_cols())) {
    os << "col_match size " << m.col_match.size() << " != num_cols " << g.num_cols();
    return os.str();
  }
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    const vid_t j = m.row_match[static_cast<std::size_t>(i)];
    if (j == kNil) continue;
    if (j < 0 || j >= g.num_cols()) {
      os << "row " << i << " matched to out-of-range column " << j;
      return os.str();
    }
    if (m.col_match[static_cast<std::size_t>(j)] != i) {
      os << "row " << i << " matched to column " << j << " but col_match[" << j
         << "] = " << m.col_match[static_cast<std::size_t>(j)];
      return os.str();
    }
    if (!has_edge(g, i, j)) {
      os << "matched pair (" << i << ", " << j << ") is not an edge";
      return os.str();
    }
  }
  for (vid_t j = 0; j < g.num_cols(); ++j) {
    const vid_t i = m.col_match[static_cast<std::size_t>(j)];
    if (i == kNil) continue;
    if (i < 0 || i >= g.num_rows()) {
      os << "column " << j << " matched to out-of-range row " << i;
      return os.str();
    }
    if (m.row_match[static_cast<std::size_t>(i)] != j) {
      os << "column " << j << " matched to row " << i << " but row_match[" << i
         << "] = " << m.row_match[static_cast<std::size_t>(i)];
      return os.str();
    }
  }
  return {};
}

/// True iff `m` is maximal in `g` (no edge joins two free vertices). Every
/// maximal matching is at least half of maximum — the classic cheap bound.
[[nodiscard]] inline bool is_maximal_matching(const BipartiteGraph& g, const Matching& m) {
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    if (m.row_matched(i)) continue;
    for (const vid_t j : g.row_neighbors(i))
      if (!m.col_matched(j)) return false;
  }
  return true;
}

/// Asserts validity with a readable failure message.
inline void expect_valid(const BipartiteGraph& g, const Matching& m,
                         const char* context) {
  const std::string violation = describe_matching_violation(g, m);
  EXPECT_TRUE(violation.empty()) << context << ": " << violation;
}

/// All four arrays of two graphs equal, CSR and CSC, with their dimensions.
inline void expect_same_arrays(const BipartiteGraph& got, const BipartiteGraph& want,
                               const std::string& what) {
  const auto vec = [](auto span) { return std::vector(span.begin(), span.end()); };
  EXPECT_EQ(got.num_rows(), want.num_rows()) << what;
  EXPECT_EQ(got.num_cols(), want.num_cols()) << what;
  EXPECT_EQ(vec(got.row_ptr()), vec(want.row_ptr())) << what;
  EXPECT_EQ(vec(got.col_idx()), vec(want.col_idx())) << what;
  EXPECT_EQ(vec(got.col_ptr()), vec(want.col_ptr())) << what;
  EXPECT_EQ(vec(got.row_idx()), vec(want.row_idx())) << what;
}

/// Rebuilds `out` in place (BipartiteGraph::rebuild) with the four arrays
/// of `source`: the pooled path, checked against `source` itself.
inline void rebuild_from(BipartiteGraph& out, const BipartiteGraph& source) {
  out.rebuild(source.num_rows(), source.num_cols(),
              [&source](auto& row_ptr, auto& col_idx, auto& col_ptr, auto& row_idx) {
                row_ptr.assign(source.row_ptr().begin(), source.row_ptr().end());
                col_idx.assign(source.col_idx().begin(), source.col_idx().end());
                col_ptr.assign(source.col_ptr().begin(), source.col_ptr().end());
                row_idx.assign(source.row_idx().begin(), source.row_idx().end());
              });
}

/// FNV-1a over the bytes of `v`: a pin for outputs that must not change by
/// a single bit (matchings, scaling multipliers). The byte order is the
/// host's, so the pinned values assume a little-endian machine.
template <typename T>
[[nodiscard]] std::uint64_t bit_fingerprint(const std::vector<T>& v) {
  return fnv1a64(std::string_view(reinterpret_cast<const char*>(v.data()),
                                  v.size() * sizeof(T)));
}

/// A per-process, per-test scratch path under the system temp directory.
/// ctest runs every test binary at three OpenMP thread counts side by side,
/// so the name carries the process id as well as the test's name.
[[nodiscard]] inline std::string scratch_dir(std::string_view prefix) {
  return (std::filesystem::temp_directory_path() /
          (std::string(prefix) + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name()))
      .string();
}

/// Exhaustive maximum matching by recursion over rows — the independent
/// oracle used to certify Hopcroft–Karp and MC21 on small instances.
inline vid_t brute_force_max_matching(const BipartiteGraph& g) {
  std::vector<bool> col_used(static_cast<std::size_t>(g.num_cols()), false);
  // Recursive lambda over rows: either skip row i or match it to a free
  // neighbour; returns the best cardinality.
  auto rec = [&](auto&& self, vid_t i) -> vid_t {
    if (i == g.num_rows()) return 0;
    vid_t best = self(self, i + 1);  // leave row i unmatched
    for (const vid_t j : g.row_neighbors(i)) {
      if (col_used[static_cast<std::size_t>(j)]) continue;
      col_used[static_cast<std::size_t>(j)] = true;
      best = std::max(best, static_cast<vid_t>(1 + self(self, i + 1)));
      col_used[static_cast<std::size_t>(j)] = false;
    }
    return best;
  };
  return rec(rec, 0);
}

/// Runs `jobs` as one batch on a fresh engine built from `config`: the
/// one-shot form, for tests that compare configurations side by side.
inline std::vector<JobResult> run_on_fresh_engine(const std::vector<JobSpec>& jobs,
                                                  const EngineConfig& config = {}) {
  Engine engine(config);
  return engine.run_collect(jobs);
}

/// A small deterministic zoo of graphs exercising edge cases: empty rows,
/// empty columns, rectangular shapes, paths, cycles, cliques.
inline std::vector<BipartiteGraph> small_graph_zoo() {
  std::vector<BipartiteGraph> zoo;
  zoo.push_back(graph_from_rows(1, 1, {{0}}));                         // single edge
  zoo.push_back(graph_from_rows(2, 2, {{0, 1}, {0, 1}}));              // 2x2 full
  zoo.push_back(graph_from_rows(3, 3, {{0}, {0, 1}, {1, 2}}));         // path
  zoo.push_back(graph_from_rows(3, 3, {{0, 1}, {1, 2}, {2, 0}}));      // 6-cycle
  zoo.push_back(graph_from_rows(3, 3, {{}, {0, 1, 2}, {1}}));          // empty row
  zoo.push_back(graph_from_rows(3, 4, {{0, 3}, {1}, {1, 2}}));         // rectangular
  zoo.push_back(graph_from_rows(4, 3, {{0}, {0}, {1, 2}, {2}}));       // tall
  zoo.push_back(graph_from_rows(4, 4, {{0, 1, 2, 3}, {0}, {0}, {0}})); // star clash
  zoo.push_back(make_full(4));
  zoo.push_back(make_cycle(5));
  return zoo;
}

} // namespace bmh::testing
