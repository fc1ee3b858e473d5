#pragma once
/// \file sinkhorn_knopp.hpp
/// \brief Parallel Sinkhorn–Knopp scaling (paper Algorithm 1, "ScaleSK").

#include "scaling/scaling.hpp"

namespace bmh {

/// Runs the Sinkhorn–Knopp iteration: at each step, first the columns are
/// balanced (dc[j] = 1 / sum_i dr[i]·a_ij), then the rows (dr[i] = 1 /
/// sum_j a_ij·dc[j]), each in an OpenMP parallel-for over the corresponding
/// compressed view. After every iteration the row sums are exactly one
/// (modulo round-off), so the reported error is the maximum deviation of the
/// column sums from one.
///
/// Edge sweeps: the error of an iteration is measured by the next
/// iteration's column sweep, whose sums under the new dr give both that
/// error (against the committed dc) and the next dc = 1 / csum. A run of k
/// iterations therefore sweeps the edges 2k + 1 times (11 at the engine's
/// default of 5), not 3k. An early stop on `tolerance` returns the dr and
/// dc of the iteration that converged, bit-identical to measuring the
/// error in a separate sweep.
///
/// Empty rows/columns keep multiplier 1 and are excluded from the error.
/// Edgeless matrices converge immediately (error 0, zero iterations).
///
/// The multipliers are written into `out` (whose vectors' capacity is
/// reused) and the spare dc buffer is leased from `ws` (tag "sk.next_dc"),
/// so a warm call performs no heap allocation.
void scale_sinkhorn_knopp_ws(const BipartiteGraph& g, const ScalingOptions& opts,
                             Workspace& ws, ScalingResult& out);

/// The heuristics' scaling step: `iterations` > 0 runs exactly that many
/// Sinkhorn–Knopp iterations (no early exit); otherwise the multipliers are
/// the identity and the error sweep is skipped (error 0). The front of
/// `one_sided_match_ws` and `two_sided_match_ws`.
void scale_sinkhorn_knopp_or_identity_ws(const BipartiteGraph& g, int iterations,
                                         Workspace& ws, ScalingResult& out);

} // namespace bmh
