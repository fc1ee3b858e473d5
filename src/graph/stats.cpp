#include "graph/stats.hpp"

#include <algorithm>
#include <span>

namespace bmh {

namespace {

DegreeStats stats_from_ptr(std::span<const eid_t> ptr, vid_t n) {
  DegreeStats s;
  if (n == 0) return s;
  double sum = 0.0, sumsq = 0.0;
  eid_t dmin = ptr[1] - ptr[0], dmax = ptr[1] - ptr[0];
#pragma omp parallel for schedule(static) reduction(+ : sum, sumsq) \
    reduction(min : dmin) reduction(max : dmax)
  for (vid_t v = 0; v < n; ++v) {
    const eid_t d = ptr[static_cast<std::size_t>(v) + 1] - ptr[static_cast<std::size_t>(v)];
    sum += static_cast<double>(d);
    sumsq += static_cast<double>(d) * static_cast<double>(d);
    dmin = std::min(dmin, d);
    dmax = std::max(dmax, d);
  }
  s.min = dmin;
  s.max = dmax;
  s.mean = sum / static_cast<double>(n);
  s.variance = sumsq / static_cast<double>(n) - s.mean * s.mean;
  vid_t zero = 0, one = 0;
#pragma omp parallel for schedule(static) reduction(+ : zero, one)
  for (vid_t v = 0; v < n; ++v) {
    const eid_t d = ptr[static_cast<std::size_t>(v) + 1] - ptr[static_cast<std::size_t>(v)];
    if (d == 0) ++zero;
    if (d == 1) ++one;
  }
  s.num_zero = zero;
  s.num_degree_one = one;
  return s;
}

} // namespace

DegreeStats row_degree_stats(const BipartiteGraph& g) {
  return stats_from_ptr(g.row_ptr(), g.num_rows());
}

double average_degree(const BipartiteGraph& g) {
  const double verts = static_cast<double>(g.num_rows()) + static_cast<double>(g.num_cols());
  if (verts == 0.0) return 0.0;
  return 2.0 * static_cast<double>(g.num_edges()) / verts;
}

} // namespace bmh
