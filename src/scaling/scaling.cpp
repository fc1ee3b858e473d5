#include "scaling/scaling.hpp"

#include <algorithm>
#include <cmath>

namespace bmh {

void identity_scaling_ws(const BipartiteGraph& g, Workspace& ws, ScalingResult& out,
                         bool compute_error) {
  out.dr.assign(static_cast<std::size_t>(g.num_rows()), 1.0);
  out.dc.assign(static_cast<std::size_t>(g.num_cols()), 1.0);
  out.iterations = 0;
  out.error = compute_error ? scaling_error_ws(g, out, ws) : 0.0;
  out.converged = false;
}

void scaled_row_sums(const BipartiteGraph& g, const ScalingResult& s,
                     std::vector<double>& out) {
  out.resize(static_cast<std::size_t>(g.num_rows()));  // every entry is written
#pragma omp parallel for schedule(dynamic, 512)
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    double acc = 0.0;
    for (const vid_t j : g.row_neighbors(i)) acc += s.dc[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(i)] = acc * s.dr[static_cast<std::size_t>(i)];
  }
}

void scaled_col_sums(const BipartiteGraph& g, const ScalingResult& s,
                     std::vector<double>& out) {
  out.resize(static_cast<std::size_t>(g.num_cols()));  // every entry is written
#pragma omp parallel for schedule(dynamic, 512)
  for (vid_t j = 0; j < g.num_cols(); ++j) {
    double acc = 0.0;
    for (const vid_t i : g.col_neighbors(j)) acc += s.dr[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(j)] = acc * s.dc[static_cast<std::size_t>(j)];
  }
}

double scaling_error_ws(const BipartiteGraph& g, const ScalingResult& s, Workspace& ws) {
  if (g.num_edges() == 0) return 0.0;  // every non-empty row/col sum is vacuous
  std::vector<double>& rs = ws.buf<double>("scaling.row_sums");
  std::vector<double>& cs = ws.buf<double>("scaling.col_sums");
  scaled_row_sums(g, s, rs);
  scaled_col_sums(g, s, cs);
  double err = 0.0;
#pragma omp parallel for schedule(static) reduction(max : err)
  for (vid_t i = 0; i < g.num_rows(); ++i)
    if (g.row_degree(i) > 0)
      err = std::max(err, std::abs(rs[static_cast<std::size_t>(i)] - 1.0));
#pragma omp parallel for schedule(static) reduction(max : err)
  for (vid_t j = 0; j < g.num_cols(); ++j)
    if (g.col_degree(j) > 0)
      err = std::max(err, std::abs(cs[static_cast<std::size_t>(j)] - 1.0));
  return err;
}

} // namespace bmh
