#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/builder.hpp"
#include "util/rng.hpp"

namespace bmh {

namespace {

/// Random permutation of {0, ..., n-1} (Fisher–Yates).
std::vector<vid_t> random_permutation(vid_t n, Rng& rng) {
  std::vector<vid_t> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  for (vid_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return p;
}

void require_positive(vid_t n, const char* what) {
  if (n <= 0) throw std::invalid_argument(std::string(what) + " must be positive");
}

/// `n`, a vertex count computed in 64 bits, as a vid_t; throws
/// std::invalid_argument naming `what` when it does not fit.
vid_t checked_dimension(eid_t n, const char* what) {
  if (n > std::numeric_limits<vid_t>::max())
    throw std::invalid_argument(std::string(what) + " = " + std::to_string(n) +
                                " exceeds the vertex id range (" +
                                std::to_string(std::numeric_limits<vid_t>::max()) + ")");
  return static_cast<vid_t>(n);
}

} // namespace

BipartiteGraph make_erdos_renyi(vid_t rows, vid_t cols, eid_t nnz_target,
                                std::uint64_t seed) {
  require_positive(rows, "make_erdos_renyi: rows");
  require_positive(cols, "make_erdos_renyi: cols");
  if (nnz_target < 0) throw std::invalid_argument("make_erdos_renyi: negative nnz");

  // Draw edges in parallel chunks with forked per-chunk streams so the result
  // is independent of the thread count. Each chunk fills its own slice of
  // the builder's edge buffer, allocated up front: an allocation failure
  // throws here, where the caller can catch it, never inside the parallel
  // region.
  constexpr eid_t kChunk = 1 << 16;
  const eid_t num_chunks = (nnz_target + kChunk - 1) / kChunk;
  GraphBuilder b(rows, cols);
  const std::span<Edge> edges = b.append_edges(static_cast<std::size_t>(nnz_target));
  const Rng root(seed);
#pragma omp parallel for schedule(dynamic)
  for (eid_t c = 0; c < num_chunks; ++c) {
    Rng rng = root.fork(static_cast<std::uint64_t>(c));
    const eid_t begin = c * kChunk;
    const eid_t end = std::min(nnz_target, begin + kChunk);
    for (eid_t e = begin; e < end; ++e) {
      const auto i = static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(rows)));
      const auto j = static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(cols)));
      edges[static_cast<std::size_t>(e)] = {i, j};
    }
  }
  return b.build();
}

BipartiteGraph make_ks_adversarial(vid_t n, vid_t k) {
  require_positive(n, "make_ks_adversarial: n");
  if (n % 2 != 0) throw std::invalid_argument("make_ks_adversarial: n must be even");
  const vid_t half = n / 2;
  if (k < 0 || k > half) throw std::invalid_argument("make_ks_adversarial: bad k");

  GraphBuilder b(n, n);
  // Full R1 x C1 block.
  for (vid_t i = 0; i < half; ++i)
    for (vid_t j = 0; j < half; ++j) b.add_edge(i, j);
  // Last k rows of R1 are full rows; last k columns of C1 are full columns.
  for (vid_t i = half - k; i < half; ++i)
    for (vid_t j = 0; j < n; ++j) b.add_edge(i, j);
  for (vid_t j = half - k; j < half; ++j)
    for (vid_t i = 0; i < n; ++i) b.add_edge(i, j);
  // Nonzero diagonals of R1 x C2 and R2 x C1: together a perfect matching.
  for (vid_t i = 0; i < half; ++i) b.add_edge(i, half + i);
  for (vid_t i = 0; i < half; ++i) b.add_edge(half + i, i);
  return b.build();
}

BipartiteGraph make_planted_perfect(vid_t n, vid_t extra_per_row, std::uint64_t seed) {
  require_positive(n, "make_planted_perfect: n");
  if (extra_per_row < 0)
    throw std::invalid_argument("make_planted_perfect: negative extra_per_row");
  Rng rng(seed);
  const std::vector<vid_t> perm = random_permutation(n, rng);
  // Row i owns edges [i * per_row, (i + 1) * per_row) of the buffer and
  // draws them from its own forked stream, so rows fill in parallel.
  const std::size_t per_row = 1 + static_cast<std::size_t>(extra_per_row);
  GraphBuilder b(n, n);
  const std::span<Edge> edges = b.append_edges(static_cast<std::size_t>(n) * per_row);
#pragma omp parallel for schedule(static)
  for (vid_t i = 0; i < n; ++i) {
    Edge* const slot = edges.data() + static_cast<std::size_t>(i) * per_row;
    slot[0] = {i, perm[static_cast<std::size_t>(i)]};
    Rng local = rng.fork(static_cast<std::uint64_t>(i));
    for (vid_t t = 0; t < extra_per_row; ++t)
      slot[1 + t] = {i, static_cast<vid_t>(local.next_below(static_cast<std::uint64_t>(n)))};
  }
  return b.build();
}

BipartiteGraph make_full(vid_t n) {
  require_positive(n, "make_full: n");
  // K_{n,n}'s CSC is its CSR, so both are written directly: deriving the
  // CSC would stage all n^2 edges again.
  const auto side = static_cast<std::size_t>(n);
  const auto write = [side, n](auto& ptr, auto& idx) {
    ptr.resize(side + 1);
    idx.resize(side * side);
    for (std::size_t i = 0; i <= side; ++i) ptr[i] = static_cast<eid_t>(i * side);
    vid_t* const out = idx.data();
#pragma omp parallel for schedule(static)
    for (vid_t i = 0; i < n; ++i)
      for (vid_t j = 0; j < n; ++j)
        out[static_cast<std::size_t>(i) * side + static_cast<std::size_t>(j)] = j;
  };
  BipartiteGraph g;
  g.rebuild(n, n, [&write](auto& row_ptr, auto& col_idx, auto& col_ptr, auto& row_idx) {
    write(row_ptr, col_idx);
    write(col_ptr, row_idx);
  });
  return g;
}

BipartiteGraph make_mesh(vid_t sx, vid_t sy) {
  require_positive(sx, "make_mesh: sx");
  require_positive(sy, "make_mesh: sy");
  const vid_t n = checked_dimension(static_cast<eid_t>(sx) * sy, "make_mesh: sx * sy");
  GraphBuilder b(n, n);
  b.reserve(static_cast<std::size_t>(n) * 5);
  auto id = [sx](vid_t x, vid_t y) { return y * sx + x; };
  for (vid_t y = 0; y < sy; ++y) {
    for (vid_t x = 0; x < sx; ++x) {
      const vid_t v = id(x, y);
      b.add_edge(v, v);
      if (x > 0) b.add_edge(v, id(x - 1, y));
      if (x + 1 < sx) b.add_edge(v, id(x + 1, y));
      if (y > 0) b.add_edge(v, id(x, y - 1));
      if (y + 1 < sy) b.add_edge(v, id(x, y + 1));
    }
  }
  return b.build();
}

BipartiteGraph make_road_like(vid_t n, double shortcut_fraction, double drop_fraction,
                              std::uint64_t seed) {
  require_positive(n, "make_road_like: n");
  if (!(shortcut_fraction >= 0 && drop_fraction >= 0 && drop_fraction <= 1))
    throw std::invalid_argument("make_road_like: bad fractions");
  const double shortcut_count = shortcut_fraction * static_cast<double>(n);
  if (!(shortcut_count < 9.0e18))
    throw std::invalid_argument("make_road_like: shortcut * n is not a valid edge count");
  Rng rng(seed);
  GraphBuilder b(n, n);
  const auto shortcuts = static_cast<eid_t>(shortcut_count);
  b.reserve(static_cast<std::size_t>(2 * static_cast<eid_t>(n) + shortcuts));
  for (vid_t i = 0; i < n; ++i) {
    // A dropped row loses both its cycle entries (it keeps only whatever
    // shortcuts land on it), which is what creates the sprank deficiency —
    // dropping just one of the two would leave the superdiagonal
    // permutation intact and the matrix always full sprank.
    if (rng.next_double() < drop_fraction) continue;
    b.add_edge(i, i);
    b.add_edge(i, (i + 1) % n);
  }
  for (eid_t s = 0; s < shortcuts; ++s) {
    const auto i = static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto j = static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    b.add_edge(i, j);
  }
  return b.build();
}

BipartiteGraph make_power_law(vid_t n, double avg_degree, double alpha,
                              std::uint64_t seed) {
  require_positive(n, "make_power_law: n");
  if (avg_degree < 1.0 || alpha <= 1.0)
    throw std::invalid_argument("make_power_law: need avg_degree >= 1 and alpha > 1");
  Rng rng(seed);
  const std::vector<vid_t> perm = random_permutation(n, rng);

  // Truncated Pareto row degrees: d = min(n, floor(x_m * U^{-1/alpha})).
  // Choose x_m so the mean is ~avg_degree: mean of Pareto = x_m*alpha/(alpha-1).
  const double x_m = avg_degree * (alpha - 1.0) / alpha;
  GraphBuilder b(n, n);
  // No row exceeds n draws, so neither does the mean: the cast stays in
  // range for any avg_degree.
  b.reserve(static_cast<std::size_t>(std::min(avg_degree, static_cast<double>(n)) *
                                     static_cast<double>(n)) +
            static_cast<std::size_t>(n));
  for (vid_t i = 0; i < n; ++i) {
    b.add_edge(i, perm[static_cast<std::size_t>(i)]);
    Rng local = rng.fork(static_cast<std::uint64_t>(i));
    const double u = local.next_double_open0();
    const double raw = x_m * std::pow(u, -1.0 / alpha);
    const auto deg = static_cast<vid_t>(
        std::min<double>(static_cast<double>(n), std::max(1.0, raw)));
    for (vid_t t = 0; t < deg; ++t)
      b.add_edge(i, static_cast<vid_t>(local.next_below(static_cast<std::uint64_t>(n))));
  }
  return b.build();
}

BipartiteGraph make_kkt_like(vid_t m, vid_t p, vid_t d, std::uint64_t seed) {
  require_positive(m, "make_kkt_like: m");
  require_positive(p, "make_kkt_like: p");
  if (d <= 0 || d > m) throw std::invalid_argument("make_kkt_like: bad d");
  Rng rng(seed);
  const vid_t n = checked_dimension(static_cast<eid_t>(m) + p, "make_kkt_like: m + p");
  GraphBuilder b(n, n);

  // H block: tridiagonal mesh-like stencil on the first m rows/cols.
  for (vid_t i = 0; i < m; ++i) {
    b.add_edge(i, i);
    if (i > 0) b.add_edge(i, i - 1);
    if (i + 1 < m) b.add_edge(i, i + 1);
  }
  // B (p x m) and its transpose, d entries per constraint row.
  for (vid_t r = 0; r < p; ++r) {
    Rng local = rng.fork(static_cast<std::uint64_t>(r));
    for (vid_t t = 0; t < d; ++t) {
      const auto c = static_cast<vid_t>(local.next_below(static_cast<std::uint64_t>(m)));
      b.add_edge(m + r, c);  // B
      b.add_edge(c, m + r);  // B^T
    }
    // Planted diagonal in the (2,2) block keeps the matrix full sprank, like
    // the regularized KKT systems in the paper's collection.
    b.add_edge(m + r, m + r);
  }
  return b.build();
}

BipartiteGraph make_one_out(vid_t n, std::uint64_t seed) {
  require_positive(n, "make_one_out: n");
  DefaultInitVector<eid_t> row_ptr(static_cast<std::size_t>(n) + 1);
  DefaultInitVector<vid_t> col_idx(static_cast<std::size_t>(n));
  for (vid_t i = 0; i <= n; ++i) row_ptr[static_cast<std::size_t>(i)] = i;
  const Rng root(seed);
#pragma omp parallel for schedule(static)
  for (vid_t i = 0; i < n; ++i) {
    Rng rng = root.fork(static_cast<std::uint64_t>(i));
    col_idx[static_cast<std::size_t>(i)] =
        static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(n)));
  }
  return BipartiteGraph(n, n, std::move(row_ptr), std::move(col_idx));
}

BipartiteGraph make_cycle(vid_t n) {
  require_positive(n, "make_cycle: n");
  GraphBuilder b(n, n);
  for (vid_t i = 0; i < n; ++i) {
    b.add_edge(i, i);
    b.add_edge(i, (i + 1) % n);
  }
  return b.build();
}

BipartiteGraph make_row_regular(vid_t n, vid_t d, std::uint64_t seed) {
  require_positive(n, "make_row_regular: n");
  if (d <= 0 || d > n) throw std::invalid_argument("make_row_regular: bad d");
  GraphBuilder b(n, n);
  b.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
  const Rng root(seed);
  for (vid_t i = 0; i < n; ++i) {
    Rng rng = root.fork(static_cast<std::uint64_t>(i));
    std::unordered_set<vid_t> chosen;
    while (chosen.size() < static_cast<std::size_t>(d))
      chosen.insert(static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(n))));
    for (const vid_t j : chosen) b.add_edge(i, j);
  }
  return b.build();
}

} // namespace bmh
