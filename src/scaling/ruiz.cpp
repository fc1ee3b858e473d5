#include "scaling/ruiz.hpp"

#include <cmath>
#include <vector>

namespace bmh {

void scale_ruiz_ws(const BipartiteGraph& g, const ScalingOptions& opts, Workspace& ws,
                   ScalingResult& out) {
  out.dr.assign(static_cast<std::size_t>(g.num_rows()), 1.0);
  out.dc.assign(static_cast<std::size_t>(g.num_cols()), 1.0);
  out.iterations = 0;
  out.error = 0.0;
  out.converged = false;

  // Edgeless matrix: vacuously doubly stochastic, converge immediately
  // (mirrors scale_sinkhorn_knopp_ws).
  if (g.num_edges() == 0) {
    out.converged = true;
    return;
  }

  std::vector<double>& rsum =
      ws.vec<double>("ruiz.row_sums", static_cast<std::size_t>(g.num_rows()));
  std::vector<double>& csum =
      ws.vec<double>("ruiz.col_sums", static_cast<std::size_t>(g.num_cols()));

  for (int it = 0; it < opts.max_iterations; ++it) {
    // Both sums with the pre-sweep multipliers (this simultaneity is what
    // distinguishes Ruiz from Sinkhorn–Knopp's alternating normalization).
    scaled_row_sums(g, out, rsum);
    scaled_col_sums(g, out, csum);

#pragma omp parallel for schedule(static)
    for (vid_t i = 0; i < g.num_rows(); ++i) {
      const double s = rsum[static_cast<std::size_t>(i)];
      if (s > 0.0) out.dr[static_cast<std::size_t>(i)] /= std::sqrt(s);
    }
#pragma omp parallel for schedule(static)
    for (vid_t j = 0; j < g.num_cols(); ++j) {
      const double s = csum[static_cast<std::size_t>(j)];
      if (s > 0.0) out.dc[static_cast<std::size_t>(j)] /= std::sqrt(s);
    }

    out.iterations = it + 1;
    out.error = scaling_error_ws(g, out, ws);
    if (opts.tolerance > 0.0 && out.error <= opts.tolerance) {
      out.converged = true;
      break;
    }
  }

  if (opts.max_iterations == 0) out.error = scaling_error_ws(g, out, ws);
}

} // namespace bmh
