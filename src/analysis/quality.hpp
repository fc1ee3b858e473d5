#pragma once
/// \file quality.hpp
/// \brief Matching quality accounting (|M| / sprank), the metric of every
/// table and figure in the paper's evaluation.

#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bmh {

/// |M| / max_cardinality. `max_cardinality` is typically sprank(g), computed
/// once per instance and reused across heuristic runs.
[[nodiscard]] double matching_quality(const Matching& m, vid_t max_cardinality);

struct QualityReport {
  vid_t cardinality = 0;
  vid_t sprank = 0;
  double quality = 0.0;  ///< cardinality / sprank
  bool valid = false;    ///< is_valid_matching held
};

/// One-stop evaluation of a heuristic result against the exact optimum
/// (sprank_ws, its scratch leased from `ws`).
[[nodiscard]] QualityReport evaluate_matching(const BipartiteGraph& g, const Matching& m,
                                              Workspace& ws);

} // namespace bmh
