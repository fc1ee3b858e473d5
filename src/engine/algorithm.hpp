#pragma once
/// \file algorithm.hpp
/// \brief MatchingAlgorithm: one row of the fixed table of built-in matchers.
///
/// Every matcher in the library — the paper's heuristics, the cheap
/// baselines, the exact solvers — is a row of the table in registry.cpp, so
/// that pipelines, benches and the engine can be written once against
/// string algorithm names instead of hand-wiring each entry point. The set
/// is closed: a row is a name, two flags and a kernel pointer, built at
/// compile time. The scaling vectors are computed by the *pipeline* (they
/// are a shared stage, reused across algorithms on the same graph);
/// algorithms that do not sample from the scaled densities ignore them.

#include <cstdint>
#include <string_view>

#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"
#include "scaling/scaling.hpp"

namespace bmh {

/// Per-algorithm knobs, uniform across the table. Fields irrelevant to a
/// given algorithm (e.g. `k` for anything but "k_out", `seed` for the
/// deterministic solvers) are ignored by it.
struct AlgorithmOptions {
  std::uint64_t seed = 1;  ///< RNG seed for randomized algorithms
  int threads = 0;         ///< OpenMP budget, applied by run_pipeline around
                           ///< every stage; 0 = ambient. Direct callers of
                           ///< run_ws() set the ambient count themselves
                           ///< (ThreadCountGuard).
  int k = 2;               ///< choices per side for the k-out extension
};

/// A named built-in matching algorithm with uniform invocation. Rows are
/// stateless: the options travel with every run, so one row serves a whole
/// batch whose seeds differ per job.
class MatchingAlgorithm {
public:
  /// The kernel behind a row: scratch is leased from `ws` and the result
  /// lands in `out` (capacity reused), so warm calls allocate nothing.
  using Kernel = void (*)(const BipartiteGraph& g, const ScalingResult& scaling,
                          const AlgorithmOptions& options, Workspace& ws, Matching& out);

  constexpr MatchingAlgorithm(std::string_view name, bool uses_scaling, bool exact,
                              Kernel kernel) noexcept
      : name_(name), uses_scaling_(uses_scaling), exact_(exact), kernel_(kernel) {}

  /// The table name: the stable identifier job specs and records use.
  [[nodiscard]] constexpr std::string_view name() const noexcept { return name_; }

  /// True iff the algorithm samples from the scaled densities; pipelines
  /// skip the scaling stage otherwise, and fill no multipliers for it.
  [[nodiscard]] constexpr bool uses_scaling() const noexcept { return uses_scaling_; }

  /// True iff the result is always a maximum matching (exact backends).
  [[nodiscard]] constexpr bool is_exact() const noexcept { return exact_; }

  /// Runs the algorithm. When uses_scaling(), `scaling` must cover `g`
  /// (identity_scaling(g) when the caller did not scale); otherwise it is
  /// ignored and may hold anything, including empty multipliers.
  void run_ws(const BipartiteGraph& g, const ScalingResult& scaling,
              const AlgorithmOptions& options, Workspace& ws, Matching& out) const {
    kernel_(g, scaling, options, ws, out);
  }

private:
  std::string_view name_;
  bool uses_scaling_;
  bool exact_;
  Kernel kernel_;
};

} // namespace bmh
