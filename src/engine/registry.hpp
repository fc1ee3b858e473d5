#pragma once
/// \file registry.hpp
/// \brief The built-in algorithm tables: string names -> MatchingAlgorithm
/// rows and undirected algorithm rows.
///
/// The names are the library's *stable public identifiers* — job specs, CLI
/// flags, bench tables and JSON results all refer to algorithms by these
/// strings:
///
///   one_sided      OneSidedMatch (Alg. 2, 0.632 guarantee)
///   two_sided      TwoSidedMatch (Alg. 3 + parallel KS of Alg. 4, ~0.866)
///   k_out          k-out generalization (push-relabel on the k-out subgraph)
///   karp_sipser    classic sequential Karp-Sipser
///   greedy         random-vertex cheap matching (1/2 guarantee)
///   greedy_edge    random-edge cheap matching (1/2 guarantee)
///   min_degree     static mindegree jump-start (deterministic)
///   hopcroft_karp  exact, O(sqrt(n) tau)
///   mc21           exact, augmenting DFS with lookahead
///   push_relabel   exact, push-relabel with global relabeling (also the
///                  solver behind sprank and k_out's subgraph match)
///
/// Undirected matching (JobSpec kind=undirected-match) has its own table
/// with its own stable names:
///
///   greedy         random-vertex cheap matching (1/2 guarantee)
///   one_out        symmetric scaling + 1-out choices + undirected KS (§5)
///   two_thirds     maximal + length-3 augmentation (2/3 guarantee)
///
/// Both tables are fixed at compile time and sorted by name: a lookup takes
/// no lock and allocates nothing, and a new algorithm is a new row.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/algorithm.hpp"
#include "undirected/matching.hpp"

namespace bmh {

/// The built-in algorithm named `name`. Throws std::invalid_argument naming
/// the unknown algorithm and listing the known names (so CLI typos produce
/// an actionable message).
[[nodiscard]] const MatchingAlgorithm& find_algorithm(std::string_view name);

/// A heap copy of find_algorithm(name); `options` is unused (rows take
/// their options per run). Its one caller is perfbench/bmh_trace.cpp's
/// layer replay, which changes only with the benchmark; delete this when
/// the engine traces itself and the replay goes.
[[nodiscard]] std::unique_ptr<MatchingAlgorithm> make_algorithm(
    std::string_view name, const AlgorithmOptions& options = {});

/// All algorithm names, sorted.
[[nodiscard]] std::vector<std::string> registered_algorithm_names();

/// What an undirected run reports back beyond the matching itself.
struct UndirectedRunInfo {
  int scaling_iterations = 0;  ///< symmetric scaling sweeps actually run
  double scaling_error = 0.0;  ///< error after the last sweep
};

/// A built-in undirected matching algorithm (JobSpec kind=undirected-match).
/// `run` leases scratch from `ws` (warm calls are allocation-free, like the
/// bipartite rows) and writes the result into `out` with capacity reused.
/// `scaling_iterations` is the pipeline's budget (0 = skip scaling);
/// algorithms that never scale ignore it and leave `info` at its defaults.
struct UndirectedAlgorithm {
  using Fn = void (*)(const UndirectedGraph& g, int scaling_iterations,
                      const AlgorithmOptions& options, Workspace& ws,
                      UndirectedMatching& out, UndirectedRunInfo& info);
  std::string_view name;
  Fn run;
};

/// The built-in undirected algorithm named `name`. Throws
/// std::invalid_argument naming the unknown algorithm and listing the known
/// names.
[[nodiscard]] const UndirectedAlgorithm& find_undirected_algorithm(std::string_view name);

/// All undirected algorithm names, sorted.
[[nodiscard]] std::vector<std::string> registered_undirected_algorithm_names();

} // namespace bmh
