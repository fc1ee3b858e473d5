#pragma once
/// \file one_sided.hpp
/// \brief OneSidedMatch (paper Algorithm 2): the synchronization-free
/// 0.632-approximation heuristic.
///
/// Every row independently picks one column from the scaled probability
/// density; concurrent rows may pick the same column and race on
/// `cmatch[j]`, but any surviving write is a valid matching edge, so no
/// conflict resolution is needed (the heuristic's headline property). For
/// a doubly stochastic scaling the expected number of unmatched columns is
/// at most n/e, giving the 1 − 1/e ≈ 0.632 guarantee of Theorem 1.

#include <cstdint>

#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"
#include "scaling/scaling.hpp"

namespace bmh {

// Scratch (choices, the column view, and for one_sided_match_ws the
// scaling vectors) is leased from `ws` and the result lands in `out`; warm
// calls are allocation-free.

/// Runs Algorithm 2 on a pre-scaled matrix. The racy `cmatch` writes are
/// relaxed atomic stores (same machine code as plain stores on x86, but
/// well-defined under the C++ memory model).
void one_sided_from_scaling_ws(const BipartiteGraph& g, const ScalingResult& scaling,
                               std::uint64_t seed, Workspace& ws, Matching& out);

/// Sinkhorn–Knopp for `scaling_iterations` then Algorithm 2.
/// `scaling_iterations = 0` reproduces the "no scaling / uniform pick"
/// baseline columns of the paper's tables.
void one_sided_match_ws(const BipartiteGraph& g, int scaling_iterations,
                        std::uint64_t seed, Workspace& ws, Matching& out);

} // namespace bmh
