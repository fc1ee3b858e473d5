#pragma once
/// \file algorithm.hpp
/// \brief The uniform MatchingAlgorithm interface served by the registry.
///
/// Every matcher in the library — the paper's heuristics, the cheap
/// baselines, the exact solvers — is wrapped behind this interface so that
/// pipelines, benches and the engine can be written once against
/// string algorithm names instead of hand-wiring each entry point. The
/// scaling vectors are computed by the *pipeline* (they are a shared stage,
/// reused across algorithms on the same graph); algorithms that do not
/// sample from the scaled densities simply ignore them.

#include <cstdint>
#include <string>

#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"
#include "scaling/scaling.hpp"

namespace bmh {

/// Per-algorithm knobs, uniform across the registry. Fields irrelevant to a
/// given algorithm (e.g. `k` for anything but "k_out", `seed` for the
/// deterministic solvers) are ignored by it.
struct AlgorithmOptions {
  std::uint64_t seed = 1;  ///< RNG seed for randomized algorithms
  int threads = 0;         ///< OpenMP budget, applied by run_pipeline around
                           ///< every stage; 0 = ambient. Direct callers of
                           ///< run() set the ambient count themselves
                           ///< (ThreadCountGuard).
  int k = 2;               ///< choices per side for the k-out extension

  friend bool operator==(const AlgorithmOptions&, const AlgorithmOptions&) = default;
};

/// A named matching algorithm with uniform invocation. Instances are cheap
/// stateless closures over their options; create one per configuration via
/// make_algorithm() and reuse it across graphs.
class MatchingAlgorithm {
public:
  virtual ~MatchingAlgorithm() = default;

  /// The registry name this instance was created under.
  [[nodiscard]] virtual const std::string& name() const noexcept = 0;

  /// True iff the algorithm samples from the scaled densities; pipelines
  /// skip the scaling stage (and pass identity multipliers) otherwise.
  [[nodiscard]] virtual bool uses_scaling() const noexcept { return false; }

  /// True iff the result is always a maximum matching (exact backends).
  [[nodiscard]] virtual bool is_exact() const noexcept { return false; }

  /// Runs the algorithm. `scaling` must cover `g` (identity_scaling(g) when
  /// the caller did not scale); it is ignored unless uses_scaling().
  [[nodiscard]] virtual Matching run(const BipartiteGraph& g,
                                     const ScalingResult& scaling) const = 0;

  /// Workspace-aware execution: scratch is leased from `ws` and the result
  /// lands in `out` (capacity reused) — the batch-serving hot path. The
  /// default forwards to run(); the built-in registrations override it with
  /// the kernels' `_ws` variants, so warm calls allocate nothing.
  virtual void run_ws(const BipartiteGraph& g, const ScalingResult& scaling,
                      Workspace& ws, Matching& out) const {
    (void)ws;
    out = run(g, scaling);
  }

  /// True iff run_ws(g, scaling, options, ws, out) honours per-run options.
  /// Batch seeds vary per job; a rebindable instance can be kept warm across
  /// jobs (the pipeline's algorithm cache keys on the name alone), while a
  /// non-rebindable one must be re-created whenever its options change. The
  /// built-in registrations are all rebindable.
  [[nodiscard]] virtual bool rebindable() const noexcept { return false; }

  /// Workspace-aware execution with per-run options. Only meaningful when
  /// rebindable(); the default ignores `options` and runs with the binding
  /// the instance was created with.
  virtual void run_ws(const BipartiteGraph& g, const ScalingResult& scaling,
                      const AlgorithmOptions& options, Workspace& ws,
                      Matching& out) const {
    (void)options;
    run_ws(g, scaling, ws, out);
  }
};

} // namespace bmh
