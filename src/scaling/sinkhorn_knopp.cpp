#include "scaling/sinkhorn_knopp.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

namespace bmh {

void scale_sinkhorn_knopp_ws(const BipartiteGraph& g, const ScalingOptions& opts,
                             Workspace& ws, ScalingResult& out) {
  out.dr.assign(static_cast<std::size_t>(g.num_rows()), 1.0);
  out.dc.assign(static_cast<std::size_t>(g.num_cols()), 1.0);
  out.iterations = 0;
  out.error = 0.0;
  out.converged = false;

  // An edgeless matrix is already (vacuously) doubly stochastic: every
  // row/column sum constraint is over an empty support. Report immediate
  // convergence instead of burning max_iterations no-op sweeps.
  if (g.num_edges() == 0) {
    out.converged = true;
    return;
  }
  if (opts.max_iterations <= 0) {
    // Zero iterations report the identity's error; a negative cap runs none.
    if (opts.max_iterations == 0) out.error = scaling_error_ws(g, out, ws);
    return;
  }

  // Each iteration's column sweep writes the balancing dc' = 1 / csum into
  // `spare` and, from the same sums, measures the previous iteration's
  // error against the committed `dc`, which an early stop returns as is.
  // The two buffers then trade roles; the committed one is copied into
  // out.dc at the end when it is the leased one.
  std::span<double> dc = out.dc;
  std::span<double> spare = ws.vec<double>("sk.next_dc", out.dc.size());

  for (int it = 0;; ++it) {
    // Column sums under the current dr. After a row balance, row sums are
    // exactly 1, so the column sums' max deviation from 1 is the paper's
    // error for the iteration just finished.
    double err = 0.0;
#pragma omp parallel for schedule(dynamic, 512) reduction(max : err)
    for (vid_t j = 0; j < g.num_cols(); ++j) {
      const auto c = static_cast<std::size_t>(j);
      double csum = 0.0;
      for (const vid_t i : g.col_neighbors(j)) csum += out.dr[static_cast<std::size_t>(i)];
      spare[c] = csum > 0.0 ? 1.0 / csum : dc[c];
      if (g.col_degree(j) != 0) err = std::max(err, std::abs(csum * dc[c] - 1.0));
    }

    if (it > 0) {
      out.error = err;
      if (opts.tolerance > 0.0 && err <= opts.tolerance) {
        out.converged = true;
        break;
      }
      if (it == opts.max_iterations) break;
    }
    std::swap(dc, spare);

    // Balance rows: dr[i] <- 1 / (sum of dc over the row's columns).
#pragma omp parallel for schedule(dynamic, 512)
    for (vid_t i = 0; i < g.num_rows(); ++i) {
      double rsum = 0.0;
      for (const vid_t j : g.row_neighbors(i)) rsum += dc[static_cast<std::size_t>(j)];
      if (rsum > 0.0) out.dr[static_cast<std::size_t>(i)] = 1.0 / rsum;
    }
    out.iterations = it + 1;
  }

  if (dc.data() != out.dc.data()) std::copy(dc.begin(), dc.end(), out.dc.begin());
}

void scale_sinkhorn_knopp_or_identity_ws(const BipartiteGraph& g, int iterations,
                                         Workspace& ws, ScalingResult& out) {
  if (iterations > 0)
    scale_sinkhorn_knopp_ws(g, {iterations, 0.0}, ws, out);
  else
    identity_scaling_ws(g, ws, out, /*compute_error=*/false);
}

} // namespace bmh
