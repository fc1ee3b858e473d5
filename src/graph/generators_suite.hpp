#pragma once
/// \file generators_suite.hpp
/// \brief The 12-instance evaluation suite standing in for the paper's UFL
/// matrices (Table 3, Figures 3–5).
///
/// The offline environment has no access to the UFL/SuiteSparse collection,
/// so each real matrix is replaced by a synthetic instance from the same
/// structural class: meshes for the PDE matrices,
/// low-degree near-cycle graphs with sprank deficiency for the road
/// networks, skewed-degree graphs for torso1/audikw_1 (where the paper
/// observes its worst load balance), KKT-like saddle-point blocks, and
/// uniform random graphs for cage15. Sizes default to roughly 1/10 of the
/// paper's (laptop scale) and can be grown/shrunk with the `scale` factor.

#include <string>
#include <vector>

#include "graph/bipartite_graph.hpp"

namespace bmh {

struct SuiteInstance {
  std::string name;        ///< paper instance this stands in for, + "_like"
  std::string family;      ///< generator family (mesh/road/powerlaw/...)
  BipartiteGraph graph;
};

/// Builds one named suite instance ("atmosmodl_like", ...). `scale`
/// multiplies vertex counts (clamped so every instance stays non-trivial).
/// Deterministic in `seed`. Throws if the name is unknown.
[[nodiscard]] SuiteInstance make_suite_instance(const std::string& name,
                                                double scale = 1.0,
                                                std::uint64_t seed = 42);

/// Names of all suite instances in canonical (paper Table 3) order.
[[nodiscard]] std::vector<std::string> suite_names();

} // namespace bmh
