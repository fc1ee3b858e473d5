#include "scaling/sinkhorn_knopp.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

namespace bmh {

void scale_sinkhorn_knopp_ws(const BipartiteGraph& g, const ScalingOptions& opts,
                             Workspace& ws, ScalingResult& out) {
  out.iterations = 0;
  out.error = 0.0;
  out.converged = false;

  // An edgeless matrix is already (vacuously) doubly stochastic: every
  // row/column sum constraint is over an empty support. Report immediate
  // convergence instead of burning max_iterations no-op sweeps.
  if (g.num_edges() == 0 || opts.max_iterations <= 0) {
    out.dr.assign(static_cast<std::size_t>(g.num_rows()), 1.0);
    out.dc.assign(static_cast<std::size_t>(g.num_cols()), 1.0);
    if (g.num_edges() == 0)
      out.converged = true;
    else if (opts.max_iterations == 0)
      // Zero iterations report the identity's error; a negative cap runs none.
      out.error = scaling_error_ws(g, out, ws);
    return;
  }

  // Every entry of dr and dc is written by the sweeps before it is read:
  // the first row sweep writes each dr (1 where a row sum is 0, the
  // identity's value), and each column sweep writes every entry of its
  // target. A kept ScalingResult of the same shape resizes for free.
  out.dr.resize(static_cast<std::size_t>(g.num_rows()));
  out.dc.resize(static_cast<std::size_t>(g.num_cols()));

  // Each iteration's column sweep writes the balancing dc' = 1 / csum into
  // `spare` and, from the same sums, measures the previous iteration's
  // error against the committed `dc`, which an early stop returns as is.
  // The two buffers then trade roles, so after an odd number of iterations
  // the committed one is the buffer the first sweep wrote. The first sweep
  // writes out.dc when max_iterations is odd, so a run to the cap ends
  // with the committed dc in place; only an early stop of the other parity
  // copies it over, on the team.
  std::span<double> dc = ws.vec<double>("sk.next_dc", out.dc.size());
  std::span<double> spare = out.dc;
  if (opts.max_iterations % 2 == 0) std::swap(dc, spare);

  // The first column sweep reads no edge: under dr ≡ 1 a column's sum is
  // its degree, exactly (integers below 2^53 add up exactly in doubles),
  // and the identity's error is never read.
#pragma omp parallel for schedule(static)
  for (vid_t j = 0; j < g.num_cols(); ++j) {
    const auto degree = static_cast<double>(g.col_degree(j));
    spare[static_cast<std::size_t>(j)] = degree > 0.0 ? 1.0 / degree : 1.0;
  }

  for (int it = 1;; ++it) {
    std::swap(dc, spare);

    // Balance rows: dr[i] <- 1 / (sum of dc over the row's columns).
#pragma omp parallel for schedule(dynamic, 512)
    for (vid_t i = 0; i < g.num_rows(); ++i) {
      double rsum = 0.0;
      for (const vid_t j : g.row_neighbors(i)) rsum += dc[static_cast<std::size_t>(j)];
      if (rsum > 0.0)
        out.dr[static_cast<std::size_t>(i)] = 1.0 / rsum;
      else if (it == 1)
        out.dr[static_cast<std::size_t>(i)] = 1.0;
    }
    out.iterations = it;

    // Column sums under the new dr. After a row balance, row sums are
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
    out.error = err;
    if (opts.tolerance > 0.0 && err <= opts.tolerance) {
      out.converged = true;
      break;
    }
    if (it == opts.max_iterations) break;
  }

  if (dc.data() != out.dc.data()) {
#pragma omp parallel for schedule(static)
    for (std::size_t j = 0; j < dc.size(); ++j) out.dc[j] = dc[j];
  }
}

void scale_sinkhorn_knopp_or_identity_ws(const BipartiteGraph& g, int iterations,
                                         Workspace& ws, ScalingResult& out) {
  if (iterations > 0)
    scale_sinkhorn_knopp_ws(g, {iterations, 0.0}, ws, out);
  else
    identity_scaling_ws(g, ws, out, /*compute_error=*/false);
}

} // namespace bmh
