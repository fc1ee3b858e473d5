#pragma once
/// \file stats.hpp
/// \brief Structural statistics of a bipartite graph.
///
/// The paper correlates parallel scalability with the variance of the
/// per-row nonzero counts (§4.2: torso1 and audikw_1 scale worst because of
/// load imbalance); these helpers compute exactly those quantities.

#include <cstdint>

#include "graph/bipartite_graph.hpp"

namespace bmh {

struct DegreeStats {
  eid_t min = 0;
  eid_t max = 0;
  double mean = 0.0;
  double variance = 0.0;     ///< population variance, as Matlab `var(...,1)`
  vid_t num_zero = 0;        ///< isolated vertices on this side
  vid_t num_degree_one = 0;  ///< Karp–Sipser Phase-1 seeds
};

/// Degree statistics of the row side.
[[nodiscard]] DegreeStats row_degree_stats(const BipartiteGraph& g);

/// Average degree over both sides, the "Avg. deg." column of Table 3.
[[nodiscard]] double average_degree(const BipartiteGraph& g);

} // namespace bmh
