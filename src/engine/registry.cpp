#include "engine/registry.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/k_out.hpp"
#include "core/one_sided.hpp"
#include "core/two_sided.hpp"
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/karp_sipser.hpp"
#include "matching/mc21.hpp"
#include "matching/push_relabel.hpp"
#include "util/thread_annotations.hpp"

namespace bmh {

namespace {

/// Shared adapter: wraps a workspace-aware callable as a MatchingAlgorithm.
/// The thread budget (AlgorithmOptions::threads) is owned by the pipeline,
/// which guards every stage — run()/run_ws() use the ambient OpenMP count.
/// The callable receives the options at *run* time, so one warm instance
/// serves a whole batch whose seeds differ per job (rebindable() is true);
/// run() is derived from the `_ws` form over the calling thread's default
/// workspace, so every entry point shares one registration per algorithm.
class LambdaAlgorithm final : public MatchingAlgorithm {
public:
  using RunWsFn =
      std::function<void(const BipartiteGraph&, const ScalingResult&,
                         const AlgorithmOptions&, Workspace&, Matching&)>;

  LambdaAlgorithm(std::string name, bool uses_scaling, bool exact,
                  AlgorithmOptions options, RunWsFn run)
      : name_(std::move(name)),
        uses_scaling_(uses_scaling),
        exact_(exact),
        options_(options),
        run_(std::move(run)) {}

  [[nodiscard]] const std::string& name() const noexcept override { return name_; }
  [[nodiscard]] bool uses_scaling() const noexcept override { return uses_scaling_; }
  [[nodiscard]] bool is_exact() const noexcept override { return exact_; }
  [[nodiscard]] bool rebindable() const noexcept override { return true; }

  [[nodiscard]] Matching run(const BipartiteGraph& g,
                             const ScalingResult& scaling) const override {
    Matching out;
    run_(g, scaling, options_, Workspace::for_this_thread(), out);
    return out;
  }

  void run_ws(const BipartiteGraph& g, const ScalingResult& scaling, Workspace& ws,
              Matching& out) const override {
    run_(g, scaling, options_, ws, out);
  }

  void run_ws(const BipartiteGraph& g, const ScalingResult& scaling,
              const AlgorithmOptions& options, Workspace& ws,
              Matching& out) const override {
    run_(g, scaling, options, ws, out);
  }

private:
  std::string name_;
  bool uses_scaling_;
  bool exact_;
  AlgorithmOptions options_;
  RunWsFn run_;
};

AlgorithmFactory wrap(std::string name, bool uses_scaling, bool exact,
                      LambdaAlgorithm::RunWsFn run) {
  return [name = std::move(name), uses_scaling, exact,
          run = std::move(run)](const AlgorithmOptions& opts) {
    return std::make_unique<LambdaAlgorithm>(name, uses_scaling, exact, opts, run);
  };
}

} // namespace

struct AlgorithmRegistry::Impl {
  mutable Mutex mutex;
  std::map<std::string, AlgorithmFactory> factories BMH_GUARDED_BY(mutex);
};

AlgorithmRegistry::AlgorithmRegistry() : impl_(std::make_shared<Impl>()) {
  const auto add = [this](const std::string& name, bool uses_scaling, bool exact,
                          LambdaAlgorithm::RunWsFn run) {
    register_algorithm(name, wrap(name, uses_scaling, exact, std::move(run)));
  };

  // The paper's heuristics: sample from the scaled densities.
  add("one_sided", true, false,
      [](const BipartiteGraph& g, const ScalingResult& s, const AlgorithmOptions& o,
         Workspace& ws, Matching& out) {
        one_sided_from_scaling_ws(g, s, o.seed, ws, out);
      });
  add("two_sided", true, false,
      [](const BipartiteGraph& g, const ScalingResult& s, const AlgorithmOptions& o,
         Workspace& ws, Matching& out) {
        two_sided_from_scaling_ws(g, s, o.seed, nullptr, ws, out);
      });
  add("k_out", true, false,
      [](const BipartiteGraph& g, const ScalingResult& s, const AlgorithmOptions& o,
         Workspace& ws, Matching& out) {
        k_out_from_scaling_ws(g, s, o.k, o.seed, ws, out);
      });

  // Cheap baselines (§2.1).
  add("karp_sipser", false, false,
      [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions& o,
         Workspace& ws, Matching& out) { karp_sipser_ws(g, o.seed, nullptr, ws, out); });
  add("greedy", false, false,
      [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions& o,
         Workspace& ws, Matching& out) { match_random_vertices_ws(g, o.seed, ws, out); });
  add("greedy_edge", false, false,
      [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions& o,
         Workspace& ws, Matching& out) { match_random_edges_ws(g, o.seed, ws, out); });
  add("min_degree", false, false,
      [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions&,
         Workspace& ws, Matching& out) { match_min_degree_ws(g, ws, out); });

  // Exact backends.
  add("hopcroft_karp", false, true,
      [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions&,
         Workspace& ws, Matching& out) { hopcroft_karp_ws(g, ws, out); });
  add("mc21", false, true,
      [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions&,
         Workspace& ws, Matching& out) { mc21_ws(g, ws, out); });
  add("push_relabel", false, true,
      [](const BipartiteGraph& g, const ScalingResult&, const AlgorithmOptions&,
         Workspace& ws, Matching& out) { push_relabel_ws(g, ws, out); });
}

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry registry;
  return registry;
}

void AlgorithmRegistry::register_algorithm(const std::string& name,
                                           AlgorithmFactory factory) {
  if (name.empty())
    throw std::invalid_argument("register_algorithm: empty algorithm name");
  if (!factory)
    throw std::invalid_argument("register_algorithm: null factory for '" + name + "'");
  LockGuard lock(impl_->mutex);
  if (!impl_->factories.emplace(name, std::move(factory)).second)
    throw std::invalid_argument("register_algorithm: '" + name +
                                "' is already registered");
}

bool AlgorithmRegistry::contains(const std::string& name) const {
  LockGuard lock(impl_->mutex);
  return impl_->factories.count(name) != 0;
}

std::unique_ptr<MatchingAlgorithm> AlgorithmRegistry::create(
    const std::string& name, const AlgorithmOptions& options) const {
  AlgorithmFactory factory;
  {
    LockGuard lock(impl_->mutex);
    const auto it = impl_->factories.find(name);
    if (it != impl_->factories.end()) factory = it->second;
  }
  if (!factory) {
    std::ostringstream os;
    os << "unknown algorithm '" << name << "'; registered:";
    for (const auto& known : names()) os << ' ' << known;
    throw std::invalid_argument(os.str());
  }
  return factory(options);
}

std::vector<std::string> AlgorithmRegistry::names() const {
  LockGuard lock(impl_->mutex);
  std::vector<std::string> out;
  out.reserve(impl_->factories.size());
  for (const auto& [name, factory] : impl_->factories) out.push_back(name);
  return out;  // std::map iterates sorted
}

std::unique_ptr<MatchingAlgorithm> make_algorithm(const std::string& name,
                                                  const AlgorithmOptions& options) {
  return AlgorithmRegistry::instance().create(name, options);
}

std::vector<std::string> registered_algorithm_names() {
  return AlgorithmRegistry::instance().names();
}

struct UndirectedAlgorithmRegistry::Impl {
  mutable Mutex mutex;
  // Values are shared_ptr so at() can copy ownership out under the lock —
  // returning a reference into the guarded map would escape the critical
  // section (-Wthread-safety-reference) and tie caller lifetime to a
  // never-erase invariant the type system can't see.
  std::map<std::string, std::shared_ptr<const UndirectedAlgorithmFn>>
      algorithms BMH_GUARDED_BY(mutex);
};

UndirectedAlgorithmRegistry::UndirectedAlgorithmRegistry()
    : impl_(std::make_shared<Impl>()) {
  register_algorithm(
      "one_out", [](const UndirectedGraph& g, int scaling_iterations,
                    const AlgorithmOptions& o, Workspace& ws, UndirectedMatching& out,
                    UndirectedRunInfo& info) {
        // Inline undirected_one_out_match_ws so the scaling diagnostics can
        // be reported instead of discarded.
        auto& s = ws.obj<SymmetricScaling>("und.scaling");
        if (scaling_iterations > 0) {
          scale_symmetric_ws(g, scaling_iterations, ws, s);
        } else {
          s.d.assign(static_cast<std::size_t>(g.num_vertices()), 1.0);
          s.iterations = 0;
          s.error = 0.0;
        }
        info.scaling_iterations = s.iterations;
        info.scaling_error = s.error;
        const std::vector<vid_t>& choice = sample_choices_ws(g, s.d, o.seed, ws);
        one_out_karp_sipser_ws(g.num_vertices(), choice, ws, out);
      });
  register_algorithm("greedy",
                     [](const UndirectedGraph& g, int, const AlgorithmOptions& o,
                        Workspace& ws, UndirectedMatching& out, UndirectedRunInfo&) {
                       undirected_greedy_ws(g, o.seed, ws, out);
                     });
  register_algorithm("two_thirds",
                     [](const UndirectedGraph& g, int, const AlgorithmOptions& o,
                        Workspace& ws, UndirectedMatching& out, UndirectedRunInfo&) {
                       undirected_two_thirds_ws(g, o.seed, ws, out);
                     });
}

UndirectedAlgorithmRegistry& UndirectedAlgorithmRegistry::instance() {
  static UndirectedAlgorithmRegistry registry;
  return registry;
}

void UndirectedAlgorithmRegistry::register_algorithm(const std::string& name,
                                                     UndirectedAlgorithmFn fn) {
  if (name.empty())
    throw std::invalid_argument("register_algorithm: empty algorithm name");
  if (!fn)
    throw std::invalid_argument("register_algorithm: null algorithm for '" + name +
                                "'");
  auto shared = std::make_shared<const UndirectedAlgorithmFn>(std::move(fn));
  LockGuard lock(impl_->mutex);
  if (!impl_->algorithms.emplace(name, std::move(shared)).second)
    throw std::invalid_argument("register_algorithm: '" + name +
                                "' is already registered");
}

bool UndirectedAlgorithmRegistry::contains(const std::string& name) const {
  LockGuard lock(impl_->mutex);
  return impl_->algorithms.count(name) != 0;
}

std::shared_ptr<const UndirectedAlgorithmFn> UndirectedAlgorithmRegistry::at(
    const std::string& name) const {
  {
    LockGuard lock(impl_->mutex);
    const auto it = impl_->algorithms.find(name);
    if (it != impl_->algorithms.end()) return it->second;  // ownership copy
  }
  std::ostringstream os;
  os << "unknown undirected algorithm '" << name << "'; registered:";
  for (const auto& known : names()) os << ' ' << known;
  throw std::invalid_argument(os.str());
}

std::vector<std::string> UndirectedAlgorithmRegistry::names() const {
  LockGuard lock(impl_->mutex);
  std::vector<std::string> out;
  out.reserve(impl_->algorithms.size());
  for (const auto& [name, fn] : impl_->algorithms) out.push_back(name);
  return out;  // std::map iterates sorted
}

std::vector<std::string> registered_undirected_algorithm_names() {
  return UndirectedAlgorithmRegistry::instance().names();
}

} // namespace bmh
