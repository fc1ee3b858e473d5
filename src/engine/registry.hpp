#pragma once
/// \file registry.hpp
/// \brief The algorithm registry: string names -> MatchingAlgorithm factories.
///
/// The registered names are the library's *stable public identifiers* — job
/// specs, CLI flags, bench tables and JSON results all refer to algorithms
/// by these strings:
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
/// New algorithms (future backends, distributed variants) plug in through
/// register_algorithm() without touching any call site.
///
/// Undirected matching (JobSpec kind=undirected-match) has its own registry
/// with its own stable names:
///
///   greedy         random-vertex cheap matching (1/2 guarantee)
///   one_out        symmetric scaling + 1-out choices + undirected KS (§5)
///   two_thirds     maximal + length-3 augmentation (2/3 guarantee)

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/algorithm.hpp"
#include "undirected/matching.hpp"

namespace bmh {

/// Builds a MatchingAlgorithm instance bound to the given options.
using AlgorithmFactory =
    std::function<std::unique_ptr<MatchingAlgorithm>(const AlgorithmOptions&)>;

/// Process-wide name -> factory map. Thread-safe; the built-in algorithms
/// above are registered on first access.
class AlgorithmRegistry {
public:
  /// The singleton instance (built-ins pre-registered).
  static AlgorithmRegistry& instance();

  /// Registers a factory under `name`. Throws std::invalid_argument if the
  /// name is empty or already taken.
  void register_algorithm(const std::string& name, AlgorithmFactory factory);

  /// True iff `name` is registered.
  [[nodiscard]] bool contains(const std::string& name) const;

  /// Instantiates the algorithm registered under `name`. Throws
  /// std::invalid_argument naming the unknown algorithm and listing the
  /// registered names (so CLI typos produce an actionable message).
  [[nodiscard]] std::unique_ptr<MatchingAlgorithm> create(
      const std::string& name, const AlgorithmOptions& options = {}) const;

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

private:
  AlgorithmRegistry();

  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Convenience: AlgorithmRegistry::instance().create(name, options).
[[nodiscard]] std::unique_ptr<MatchingAlgorithm> make_algorithm(
    const std::string& name, const AlgorithmOptions& options = {});

/// Convenience: AlgorithmRegistry::instance().names().
[[nodiscard]] std::vector<std::string> registered_algorithm_names();

/// What an undirected run reports back beyond the matching itself.
struct UndirectedRunInfo {
  int scaling_iterations = 0;  ///< symmetric scaling sweeps actually run
  double scaling_error = 0.0;  ///< error after the last sweep
};

/// An undirected matching algorithm: scratch comes from `ws` (warm calls
/// are allocation-free, like the bipartite `_ws` registrations), the result
/// lands in `out` with capacity reused. `scaling_iterations` is the
/// pipeline's budget (0 = skip scaling); algorithms that never scale ignore
/// it and leave `info` at its defaults.
using UndirectedAlgorithmFn = std::function<void(
    const UndirectedGraph& g, int scaling_iterations, const AlgorithmOptions& options,
    Workspace& ws, UndirectedMatching& out, UndirectedRunInfo& info)>;

/// Process-wide name -> undirected algorithm map (JobSpec
/// kind=undirected-match). Thread-safe; built-ins registered on first
/// access. at() hands out shared ownership, so a resolved algorithm's
/// lifetime never depends on registry internals.
class UndirectedAlgorithmRegistry {
public:
  static UndirectedAlgorithmRegistry& instance();

  /// Registers `fn` under `name`. Throws std::invalid_argument if the name
  /// is empty or already taken.
  void register_algorithm(const std::string& name, UndirectedAlgorithmFn fn);

  /// True iff `name` is registered.
  [[nodiscard]] bool contains(const std::string& name) const;

  /// The algorithm registered under `name`, copied out of the registry's
  /// critical section (never null — shared ownership keeps it callable
  /// regardless of what the registry does afterwards). Throws
  /// std::invalid_argument naming the unknown algorithm and listing the
  /// registered names.
  [[nodiscard]] std::shared_ptr<const UndirectedAlgorithmFn> at(
      const std::string& name) const;

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

private:
  UndirectedAlgorithmRegistry();

  struct Impl;
  std::shared_ptr<Impl> impl_;
};

/// Convenience: UndirectedAlgorithmRegistry::instance().names().
[[nodiscard]] std::vector<std::string> registered_undirected_algorithm_names();

} // namespace bmh
