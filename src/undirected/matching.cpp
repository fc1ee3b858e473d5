#include "undirected/matching.hpp"

#include <cmath>
#include <stdexcept>

#include "core/choice.hpp"
#include "core/karp_sipser_mt.hpp"
#include "graph/count_scatter.hpp"
#include "util/rng.hpp"

namespace bmh {

vid_t UndirectedMatching::cardinality() const noexcept {
  vid_t twice = 0;
  const auto n = static_cast<vid_t>(mate.size());
#pragma omp parallel for schedule(static) reduction(+ : twice)
  for (vid_t u = 0; u < n; ++u)
    if (mate[static_cast<std::size_t>(u)] != kNil) ++twice;
  return twice / 2;
}

bool is_valid_matching(const UndirectedGraph& g, const UndirectedMatching& m) {
  // This runs on the warm serving path (kind=undirected-match validates
  // every job), so it must not build strings. Violations are counted in
  // blocks on the ambient team; the verdict does not depend on the team size.
  const vid_t n = g.num_vertices();
  if (m.mate.size() != static_cast<std::size_t>(n)) return false;
  const vid_t* const mate = m.mate.data();
  const eid_t bad = parallel_sum<eid_t>(
      static_cast<std::size_t>(n), [&g, mate, n](std::size_t begin, std::size_t end) {
        eid_t count = 0;
        for (std::size_t u = begin; u < end; ++u) {
          const vid_t v = mate[u];
          if (v == kNil) continue;
          if (v < 0 || v >= n || mate[v] != static_cast<vid_t>(u)) {
            ++count;
            continue;
          }
          // The whole list, without an early exit: where v sits varies with
          // every matching, so a search would mispredict.
          bool found = false;
          for (const vid_t w : g.neighbors(static_cast<vid_t>(u))) found |= w == v;
          count += !found;
        }
        return count;
      });
  return bad == 0;
}

void scale_symmetric_ws(const UndirectedGraph& g, int iterations, Workspace& ws,
                        SymmetricScaling& out) {
  const vid_t n = g.num_vertices();
  out.d.assign(static_cast<std::size_t>(n), 1.0);
  out.iterations = 0;
  out.error = 0.0;
  auto& rowsum = ws.vec<double>("und.scale.rowsum", static_cast<std::size_t>(n));

  for (int it = 0; it < iterations; ++it) {
    // r[u] = d[u] * sum_{v in N(u)} d[v]; then d[u] /= sqrt(r[u]). This is
    // the symmetric (Ruiz-style) sweep; symmetry of d is preserved exactly.
#pragma omp parallel for schedule(dynamic, 512)
    for (vid_t u = 0; u < n; ++u) {
      double acc = 0.0;
      for (const vid_t v : g.neighbors(u)) acc += out.d[static_cast<std::size_t>(v)];
      rowsum[static_cast<std::size_t>(u)] = acc * out.d[static_cast<std::size_t>(u)];
    }
#pragma omp parallel for schedule(static)
    for (vid_t u = 0; u < n; ++u) {
      const double r = rowsum[static_cast<std::size_t>(u)];
      if (r > 0.0) out.d[static_cast<std::size_t>(u)] /= std::sqrt(r);
    }
    out.iterations = it + 1;
  }

  double err = 0.0;
#pragma omp parallel for schedule(dynamic, 512) reduction(max : err)
  for (vid_t u = 0; u < n; ++u) {
    if (g.degree(u) == 0) continue;
    double acc = 0.0;
    for (const vid_t v : g.neighbors(u)) acc += out.d[static_cast<std::size_t>(v)];
    err = std::max(err, std::abs(acc * out.d[static_cast<std::size_t>(u)] - 1.0));
  }
  out.error = err;
}

std::vector<vid_t>& sample_choices_ws(const UndirectedGraph& g,
                                      std::span<const double> d, std::uint64_t seed,
                                      Workspace& ws) {
  if (d.size() != static_cast<std::size_t>(g.num_vertices()))
    throw std::invalid_argument("sample_choices_ws: multiplier size mismatch");
  auto& choice = ws.buf<vid_t>("und.choice");
  sample_csr_choices(g.ptr(), g.adj(), d, seed, /*salt=*/0, choice);
  return choice;
}

void one_out_karp_sipser_ws(vid_t n, std::span<const vid_t> choice, Workspace& ws,
                            UndirectedMatching& out) {
  if (choice.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("one_out_karp_sipser_ws: choice size mismatch");
  const std::vector<vid_t>& match = out_one_chains_ws(choice, /*m=*/kNil, ws);

  // Phase 2: survivors form disjoint simple cycles (possibly odd). Walk
  // each once and match alternate edges; odd cycles leave one vertex free.
  // This phase is sequential: surviving cycle mass is O(sqrt(n)) in
  // expectation for random choices, so it does not affect scalability.
  out.mate.resize(static_cast<std::size_t>(n));
#pragma omp parallel for schedule(static)
  for (vid_t u = 0; u < n; ++u)
    out.mate[static_cast<std::size_t>(u)] = match[static_cast<std::size_t>(u)];

  auto& visited = ws.vec<char>("und.ks.visited", static_cast<std::size_t>(n),
                               static_cast<char>(0));
  auto& cycle = ws.buf<vid_t>("und.ks.cycle");
  for (vid_t u = 0; u < n; ++u) {
    if (visited[static_cast<std::size_t>(u)]) continue;
    if (out.mate[static_cast<std::size_t>(u)] != kNil) continue;
    const vid_t v = choice[static_cast<std::size_t>(u)];
    if (v == kNil || out.mate[static_cast<std::size_t>(v)] != kNil) continue;

    // Collect the cycle through u. At Phase-1 fixpoint every unmatched
    // vertex with an unmatched choice target lies on an all-unmatched
    // cycle; the matched/kNil guards below are defensive (a prematurely
    // ended walk yields a path whose consecutive pairs are still edges, so
    // the alternate-pair matching below remains valid).
    cycle.clear();
    vid_t w = u;
    while (w != kNil && !visited[static_cast<std::size_t>(w)] &&
           out.mate[static_cast<std::size_t>(w)] == kNil) {
      visited[static_cast<std::size_t>(w)] = 1;
      cycle.push_back(w);
      w = choice[static_cast<std::size_t>(w)];
    }
    for (std::size_t i = 0; i + 1 < cycle.size(); i += 2) {
      out.mate[static_cast<std::size_t>(cycle[i])] = cycle[i + 1];
      out.mate[static_cast<std::size_t>(cycle[i + 1])] = cycle[i];
    }
  }
}

const SymmetricScaling& undirected_one_out_match_ws(const UndirectedGraph& g,
                                                    int scaling_iterations,
                                                    std::uint64_t seed, Workspace& ws,
                                                    UndirectedMatching& out) {
  auto& s = ws.obj<SymmetricScaling>("und.scaling");
  if (scaling_iterations > 0) {
    scale_symmetric_ws(g, scaling_iterations, ws, s);
  } else {
    s.d.assign(static_cast<std::size_t>(g.num_vertices()), 1.0);
    s.iterations = 0;
    s.error = 0.0;
  }
  const std::vector<vid_t>& choice = sample_choices_ws(g, s.d, seed, ws);
  one_out_karp_sipser_ws(g.num_vertices(), choice, ws, out);
  return s;
}

void undirected_greedy_ws(const UndirectedGraph& g, std::uint64_t seed, Workspace& ws,
                          UndirectedMatching& out) {
  const vid_t n = g.num_vertices();
  out.mate.assign(static_cast<std::size_t>(n), kNil);
  Rng rng(seed);
  auto& order = ws.vec<vid_t>("und.greedy.order", static_cast<std::size_t>(n));
  for (vid_t u = 0; u < n; ++u) order[static_cast<std::size_t>(u)] = u;
  for (vid_t k = n - 1; k > 0; --k) {
    const auto r = static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(k) + 1));
    std::swap(order[static_cast<std::size_t>(k)], order[static_cast<std::size_t>(r)]);
  }
  for (const vid_t u : order) {
    if (out.matched(u)) continue;
    vid_t picked = kNil;
    std::uint64_t seen = 0;
    for (const vid_t v : g.neighbors(u)) {
      if (out.matched(v)) continue;
      ++seen;
      if (rng.next_below(seen) == 0) picked = v;
    }
    if (picked != kNil) {
      out.mate[static_cast<std::size_t>(u)] = picked;
      out.mate[static_cast<std::size_t>(picked)] = u;
    }
  }
}

void undirected_two_thirds_ws(const UndirectedGraph& g, std::uint64_t seed,
                              Workspace& ws, UndirectedMatching& out) {
  undirected_greedy_ws(g, seed, ws, out);
  // Improve with length-3 alternating paths until none remains: for a
  // matched edge (u, v), look for free x ~ u and free y ~ v with x != y;
  // rematch as (x, u), (v, y). A matching with no length-3 augmenting path
  // is a 2/3-approximation of the maximum.
  bool improved = true;
  while (improved) {
    improved = false;
    for (vid_t u = 0; u < g.num_vertices(); ++u) {
      const vid_t v = out.mate[static_cast<std::size_t>(u)];
      if (v == kNil || v < u) continue;
      vid_t x = kNil;
      for (const vid_t cand : g.neighbors(u)) {
        if (cand != v && !out.matched(cand)) {
          x = cand;
          break;
        }
      }
      if (x == kNil) continue;
      vid_t y = kNil;
      for (const vid_t cand : g.neighbors(v)) {
        if (cand != u && cand != x && !out.matched(cand)) {
          y = cand;
          break;
        }
      }
      if (y == kNil) continue;
      out.mate[static_cast<std::size_t>(x)] = u;
      out.mate[static_cast<std::size_t>(u)] = x;
      out.mate[static_cast<std::size_t>(v)] = y;
      out.mate[static_cast<std::size_t>(y)] = v;
      improved = true;
    }
  }
}

} // namespace bmh
