#pragma once
/// \file ruiz.hpp
/// \brief Parallel Ruiz equilibration (reviewed in paper §2.2).
///
/// Ruiz's algorithm scales rows and columns *simultaneously* each sweep:
///   dr[i] <- dr[i] / sqrt(rowsum_i),  dc[j] <- dc[j] / sqrt(colsum_j),
/// both sums taken with the pre-sweep multipliers. The paper notes it
/// converges more slowly than Sinkhorn–Knopp on unsymmetric matrices; the
/// `bench_paper ablation_scaling` section measures exactly that trade-off
/// as it feeds the matching heuristics.

#include "scaling/scaling.hpp"

namespace bmh {

[[nodiscard]] ScalingResult scale_ruiz(const BipartiteGraph& g,
                                       const ScalingOptions& opts = {});

/// Workspace-aware variant: sweep scratch is leased from `ws` and the
/// multipliers land in `out` (capacity reused); warm calls allocate nothing.
/// Edgeless matrices converge immediately (error 0, zero iterations).
void scale_ruiz_ws(const BipartiteGraph& g, const ScalingOptions& opts, Workspace& ws,
                   ScalingResult& out);

} // namespace bmh
