#pragma once
/// \file quality.hpp
/// \brief Matching quality accounting (|M| / sprank), the metric of every
/// table and figure in the paper's evaluation.

#include "matching/matching.hpp"

namespace bmh {

/// |M| / max_cardinality. `max_cardinality` is typically sprank(g), computed
/// once per instance and reused across heuristic runs.
[[nodiscard]] double matching_quality(const Matching& m, vid_t max_cardinality);

} // namespace bmh
