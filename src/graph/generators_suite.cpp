#include "graph/generators_suite.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/generators.hpp"

namespace bmh {

namespace {

vid_t scale_n(vid_t base, double scale, vid_t floor_value = 1024) {
  const double s = std::clamp(scale, 0.001, 1000.0);
  return std::max<vid_t>(floor_value, static_cast<vid_t>(static_cast<double>(base) * s));
}

/// Side length for a mesh whose vertex count is ~base*scale.
vid_t mesh_side(vid_t base_side, double scale) {
  const double s = std::sqrt(std::clamp(scale, 0.001, 1000.0));
  return std::max<vid_t>(32, static_cast<vid_t>(static_cast<double>(base_side) * s));
}

} // namespace

std::vector<std::string> suite_names() {
  return {"atmosmodl_like", "audikw_1_like", "cage15_like",   "channel_like",
          "europe_osm_like", "Hamrle3_like",  "hugebubbles_like", "kkt_power_like",
          "nlpkkt240_like",  "road_usa_like", "torso1_like",   "venturiLevel3_like"};
}

SuiteInstance make_suite_instance(const std::string& name, double scale,
                                  std::uint64_t seed) {
  // Base sizes are ~1/10 of the paper's instances; average degrees match the
  // paper's Table 3 (so per-edge work and degree variance are comparable).
  if (name == "atmosmodl_like") {
    const vid_t s = mesh_side(390, scale);  // paper: n=1.49M, d=6.9 (3D stencil)
    return {name, "mesh", make_mesh(s, s)};
  }
  if (name == "audikw_1_like") {
    // paper: n=0.94M, d=82, very high degree variance.
    const vid_t n = scale_n(94000, scale);
    return {name, "powerlaw", make_power_law(n, 60.0, 1.6, seed + 1)};
  }
  if (name == "cage15_like") {
    // paper: n=5.15M, d=19.2, fairly uniform random structure.
    const vid_t n = scale_n(515000, scale);
    return {name, "erdos_renyi",
            make_erdos_renyi(n, n, static_cast<eid_t>(n) * 19, seed + 2)};
  }
  if (name == "channel_like") {
    // paper: n=4.8M, d=17.8, mesh-like with wide stencil.
    const vid_t n = scale_n(480000, scale);
    return {name, "planted", make_planted_perfect(n, 17, seed + 3)};
  }
  if (name == "europe_osm_like") {
    // paper: n=50.9M, d=2.1, road network, sprank/n = 0.99.
    const vid_t n = scale_n(5090000, scale);
    return {name, "road", make_road_like(n, 0.10, 0.02, seed + 4)};
  }
  if (name == "Hamrle3_like") {
    // paper: n=1.45M, d=3.8, circuit simulation.
    const vid_t n = scale_n(145000, scale);
    return {name, "road", make_road_like(n, 1.8, 0.0, seed + 5)};
  }
  if (name == "hugebubbles_like") {
    // paper: n=21.2M, d=3.0, near-planar mesh with tiny degrees.
    const vid_t n = scale_n(2120000, scale);
    return {name, "road", make_road_like(n, 1.0, 0.0, seed + 6)};
  }
  if (name == "kkt_power_like") {
    // paper: n=2.06M, d=6.2, optimal power flow KKT system.
    const vid_t m = scale_n(150000, scale), p = scale_n(56000, scale);
    return {name, "kkt", make_kkt_like(m, p, 3, seed + 7)};
  }
  if (name == "nlpkkt240_like") {
    // paper: n=28M, d=26.7, huge nonlinear-programming KKT system.
    const vid_t m = scale_n(1800000, scale), p = scale_n(1000000, scale);
    return {name, "kkt", make_kkt_like(m, p, 11, seed + 8)};
  }
  if (name == "road_usa_like") {
    // paper: n=23.9M, d=2.4, road network, sprank/n = 0.95.
    const vid_t n = scale_n(2390000, scale);
    return {name, "road", make_road_like(n, 0.40, 0.05, seed + 9)};
  }
  if (name == "torso1_like") {
    // paper: n=116k, d=73.3; the highest row-degree variance in the set
    // (176056 in Matlab terms) — worst-case load imbalance.
    const vid_t n = scale_n(58000, scale);
    return {name, "powerlaw", make_power_law(n, 55.0, 1.35, seed + 10)};
  }
  if (name == "venturiLevel3_like") {
    // paper: n=4.03M, d=4.0, 2D fluid mesh.
    const vid_t s = mesh_side(635, scale);
    return {name, "mesh", make_mesh(s, s)};
  }
  throw std::invalid_argument("make_suite_instance: unknown instance '" + name + "'");
}

} // namespace bmh
