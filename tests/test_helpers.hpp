#pragma once
/// \file test_helpers.hpp
/// \brief Shared fixtures and helpers for the bmh test suite.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "bmh.hpp"
#include "util/hash.hpp"

namespace bmh::testing {

/// Asserts validity with a readable failure message.
inline void expect_valid(const BipartiteGraph& g, const Matching& m,
                         const char* context) {
  const std::string violation = describe_matching_violation(g, m);
  EXPECT_TRUE(violation.empty()) << context << ": " << violation;
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
