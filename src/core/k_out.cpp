#include "core/k_out.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "core/choice.hpp"
#include "core/workspace.hpp"
#include "graph/count_scatter.hpp"
#include "matching/push_relabel.hpp"

namespace bmh {

namespace {

/// The k-pick loop over one CSR side (the layout of sample_csr_choices):
/// k draws of one WeightedPick per vertex with bounded-retry de-duplication.
/// Writes into `out` (capacity reused by workspace-leased callers).
void sample_k(std::span<const eid_t> ptr, std::span<const vid_t> adj,
              std::span<const double> weight, int k, std::uint64_t seed,
              std::uint64_t salt, std::vector<vid_t>& out) {
  if (k < 1) throw std::invalid_argument("sample_k: k must be >= 1");
  const auto n = static_cast<vid_t>(ptr.empty() ? 0 : ptr.size() - 1);
  out.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(k), kNil);
  const Rng root(seed);
#pragma omp parallel for schedule(dynamic, 512)
  for (vid_t u = 0; u < n; ++u) {
    const auto first = static_cast<std::size_t>(ptr[static_cast<std::size_t>(u)]);
    const auto last = static_cast<std::size_t>(ptr[static_cast<std::size_t>(u) + 1]);
    if (first == last) continue;
    const std::span<const vid_t> nbrs = adj.subspan(first, last - first);
    Rng rng = root.fork(salt ^ static_cast<std::uint64_t>(u));
    auto* slot = out.data() + static_cast<std::size_t>(u) * static_cast<std::size_t>(k);

    if (static_cast<std::size_t>(k) >= nbrs.size()) {
      // Take the whole neighbourhood.
      for (std::size_t t = 0; t < nbrs.size(); ++t) slot[t] = nbrs[t];
      continue;
    }
    const WeightedPick pick(nbrs, weight);
    int filled = 0;
    for (int attempt = 0; attempt < 8 * k && filled < k; ++attempt) {
      const vid_t picked = pick(rng);
      bool duplicate = false;
      for (int t = 0; t < filled; ++t) duplicate |= (slot[t] == picked);
      if (!duplicate) slot[filled++] = picked;
    }
  }
}

} // namespace

void sample_row_choices_k(const BipartiteGraph& g, const std::vector<double>& dc, int k,
                          std::uint64_t seed, std::vector<vid_t>& out) {
  if (dc.size() != static_cast<std::size_t>(g.num_cols()))
    throw std::invalid_argument("sample_row_choices_k: dc size mismatch");
  sample_k(g.row_ptr(), g.col_idx(), dc, k, seed, 0x6b4f55545f524f57ull, out);
}

void sample_col_choices_k(const BipartiteGraph& g, const std::vector<double>& dr, int k,
                          std::uint64_t seed, std::vector<vid_t>& out) {
  if (dr.size() != static_cast<std::size_t>(g.num_rows()))
    throw std::invalid_argument("sample_col_choices_k: dr size mismatch");
  sample_k(g.col_ptr(), g.row_idx(), dr, k, seed, 0x6b4f55545f434f4cull, out);
}

namespace {

/// `k` capped at the largest degree of one side (its `ptr`), but not below
/// 1, so a bad k (< 1) still reaches sample_k's check. A vertex whose
/// degree is at most k takes its whole neighbourhood and draws nothing, so
/// the capped k picks the same subgraph with n·max-degree slots, not n·k.
int clamp_k(int k, std::span<const eid_t> ptr) {
  eid_t max_degree = 1;
  for (std::size_t u = 1; u < ptr.size(); ++u)
    max_degree = std::max(max_degree, ptr[u] - ptr[u - 1]);
  return static_cast<int>(std::min(static_cast<eid_t>(k), max_degree));
}

/// g's edges per pick slot (both sides' n·k slots together) up to which
/// k_out filters its subgraph out of g; denser graphs merge it from the
/// picks instead. Filtering reads every edge of g in order, merging
/// scatters every pick. On er at n = 2^17 and k = 2 (4 slots per row) the
/// two cross between average degree 8 and 12 at one thread and between 16
/// and 24 at three (BENCH_micro.json, `k_out_subgraph`, `crossover`); 3 is
/// degree 12.
constexpr eid_t kFilterMaxEdgesPerPick = 3;

/// Runs body(u) for every u in [0, n): on the ambient team when `team`,
/// inline otherwise, where entering a parallel region costs more than the
/// loop.
template <class Body>
void for_each_vertex(std::size_t n, bool team, const Body& body) {
  if (team) {
#pragma omp parallel for schedule(dynamic, 512)
    for (std::size_t u = 0; u < n; ++u) body(u);
  } else {
    for (std::size_t u = 0; u < n; ++u) body(u);
  }
}

/// One side's picks as a set: the `stride` slots of vertex u hold u's
/// picks (kNil only in trailing unused slots; no vertex id equals it). K > 0
/// fixes the stride at compile time, so membership is K straight-line
/// compares; K = 0 reads `stride`.
template <int K>
struct PickSet {
  vid_t* picks;
  int stride;
  [[nodiscard]] std::size_t width() const noexcept {
    return static_cast<std::size_t>(K > 0 ? K : stride);
  }
  [[nodiscard]] vid_t* slots(std::size_t u) const noexcept { return picks + u * width(); }
  bool contains(vid_t u, vid_t v) const noexcept {
    const vid_t* const slot = slots(static_cast<std::size_t>(u));
    bool hit = false;
    for (std::size_t t = 0; t < width(); ++t) hit |= slot[t] == v;
    return hit;
  }
  /// The number of u's picks: its slots before the first kNil.
  [[nodiscard]] std::size_t count(std::size_t u) const noexcept {
    const vid_t* const slot = slots(u);
    if constexpr (K == 2) return std::size_t{slot[0] != kNil} + std::size_t{slot[1] != kNil};
    return static_cast<std::size_t>(std::find(slot, slot + width(), kNil) - slot);
  }
};

/// One orientation of the subgraph by filtering: writes into (out_ptr,
/// out_idx) the neighbours v of each vertex u of the adjacency (ptr, idx)
/// with keep(u, v), in list order, so lists stay sorted. Each vertex's kept
/// neighbours are staged in `scratch` (one entry per edge) at its own
/// offsets, then counted, prefixed and copied.
template <class Keep, class Ptr, class Idx>
void filter_adjacency(std::span<const eid_t> ptr, std::span<const vid_t> idx, const Keep& keep,
                      std::vector<vid_t>& scratch, Ptr& out_ptr, Idx& out_idx) {
  const std::size_t n = ptr.empty() ? 0 : ptr.size() - 1;  // a moved-from g has no offsets
  const eid_t* const in_ptr = ptr.data();
  const vid_t* const in_idx = idx.data();
  const bool team = idx.size() >= kParallelMinItems;
  // Every resize comes before its loop, so no allocation (and no
  // exception) happens inside a parallel region.
  scratch.resize(idx.size());
  vid_t* const staged = scratch.data();
  out_ptr.resize(n + 1);
  eid_t* const offsets = out_ptr.data();
  offsets[0] = 0;
  // Every neighbour is staged at the cursor, which advances only past kept
  // ones: no branch on the verdict, and the writes stay inside u's range.
  for_each_vertex(n, team, [=, &keep](std::size_t u) {
    vid_t* const kept = staged + in_ptr[u];
    eid_t count = 0;
    for (eid_t e = in_ptr[u]; e < in_ptr[u + 1]; ++e) {
      const vid_t v = in_idx[e];
      kept[count] = v;
      count += keep(static_cast<vid_t>(u), v);
    }
    offsets[u + 1] = count;
  });
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
  out_idx.resize(static_cast<std::size_t>(offsets[n]));
  vid_t* const out = out_idx.data();
  for_each_vertex(n, team, [=](std::size_t u) {
    std::copy(staged + in_ptr[u], staged + in_ptr[u] + (offsets[u + 1] - offsets[u]),
              out + offsets[u]);
  });
}

/// Lists, for each of `num_targets` vertices v, the vertices of the other
/// side that picked v: on return by[ptr[v] .. ptr[v + 1]) are v's pickers
/// in ascending order (a stable counting sort of the pick slots keyed by
/// the picked vertex; kNil slots fall in an extra bucket past the last
/// vertex), the same arrays at any team size.
template <int K>
void picks_by_target(PickSet<K> picks, std::size_t num_slots, vid_t num_targets,
                     std::vector<eid_t>& ptr, std::vector<vid_t>& by,
                     DefaultInitVector<eid_t>& hist) {
  const vid_t nil_bucket = num_targets;
  ptr.resize(static_cast<std::size_t>(num_targets) + 2);
  by.resize(num_slots);
  const vid_t* const p = picks.picks;
  const std::size_t width = picks.width();
  const auto bucket = [p, nil_bucket](std::size_t s) { return p[s] == kNil ? nil_bucket : p[s]; };
  count_scatter(
      num_slots, static_cast<std::size_t>(num_targets) + 1, bucket,
      [bucket, width](std::size_t begin, std::size_t end, auto&& sink) {
        auto picker = static_cast<vid_t>(begin / width);
        std::size_t t = begin % width;
        for (std::size_t s = begin; s < end; ++s) {
          sink(bucket(s), picker);
          if (++t == width) {
            t = 0;
            ++picker;
          }
        }
      },
      ptr, by, hist);
}

/// One orientation of the subgraph by merging: writes into (out_ptr,
/// out_idx), for each vertex u, the union of its own picks (`own`, sorted
/// here in place) and its pickers (by[by_ptr[u] .. by_ptr[u + 1]),
/// ascending), ascending and without duplicates. A count pass (picks plus
/// pickers, less each pick v that picked u back, found in `other`), a
/// prefix, and a write pass: a two-list merge with a fixed trip count.
template <int K, class Ptr, class Idx>
void merge_picks(PickSet<K> own, PickSet<K> other, const std::vector<eid_t>& by_ptr,
                 const std::vector<vid_t>& by, Ptr& out_ptr, Idx& out_idx) {
  const std::size_t n = by_ptr.size() - 2;
  const bool team = n * own.width() >= kParallelMinItems;
  const eid_t* const first = by_ptr.data();
  const vid_t* const pickers = by.data();
  out_ptr.resize(n + 1);
  eid_t* const offsets = out_ptr.data();
  offsets[0] = 0;
  for_each_vertex(n, team, [=](std::size_t u) {
    vid_t* const slot = own.slots(u);
    const std::size_t picked = own.count(u);
    if constexpr (K == 2) {
      const vid_t low = std::min(slot[0], slot[1]);
      const vid_t high = std::max(slot[0], slot[1]);
      if (picked == 2) {
        slot[0] = low;
        slot[1] = high;
      }
    } else {
      std::sort(slot, slot + picked);
    }
    eid_t count = first[u + 1] - first[u];
    for (std::size_t t = 0; t < picked; ++t)
      count += !other.contains(slot[t], static_cast<vid_t>(u));
    offsets[u + 1] = count;
  });
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
  out_idx.resize(static_cast<std::size_t>(offsets[n]));
  vid_t* const out = out_idx.data();
  for_each_vertex(n, team, [=](std::size_t u) {
    constexpr vid_t kPast = std::numeric_limits<vid_t>::max();  // an exhausted list's head
    const vid_t* const a = own.slots(u);
    const std::size_t a_size = own.count(u);
    const vid_t* const b = pickers + first[u];
    const auto b_size = static_cast<std::size_t>(first[u + 1] - first[u]);
    std::size_t x = 0;
    std::size_t y = 0;
    for (eid_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      const vid_t head_a = x < a_size ? a[x] : kPast;
      const vid_t head_b = y < b_size ? b[y] : kPast;
      out[e] = std::min(head_a, head_b);
      x += head_a <= head_b;
      y += head_b <= head_a;
    }
  });
}

} // namespace

void k_out_subgraph_ws(const BipartiteGraph& g, const ScalingResult& scaling, int k,
                       std::uint64_t seed, Workspace& ws, BipartiteGraph& out) {
  // The assembly reads g while it rewrites out.
  if (&out == &g) throw std::invalid_argument("k_out_subgraph_ws: out must not be g");
  std::vector<vid_t>& row_picks = ws.buf<vid_t>("kout.row_picks");
  std::vector<vid_t>& col_picks = ws.buf<vid_t>("kout.col_picks");
  const int row_k = clamp_k(k, g.row_ptr());
  const int col_k = clamp_k(k, g.col_ptr());
  sample_row_choices_k(g, scaling.dc, row_k, seed, row_picks);
  sample_col_choices_k(g, scaling.dr, col_k, seed + 0x9e3779b97f4a7c15ULL, col_picks);
  // Every pick is an edge of g, so row i of the subgraph is row i of g
  // filtered by "i picked j or j picked i", and equally row i's own picks
  // merged with the columns that picked it; columns alike. Filtering reads
  // g, merging scatters the picks, so merging wins on dense g. Either way
  // rows and columns come out sorted and the CSC is the CSR's transpose.
  const bool filter =
      g.num_edges() <= kFilterMaxEdgesPerPick *
                           static_cast<eid_t>(row_picks.size() + col_picks.size());
  const auto assemble = [&](auto rows, auto cols) {
    const auto fill = [&](auto& row_ptr, auto& col_idx, auto& col_ptr, auto& row_idx) {
      if (filter) {
        // One test for both orientations, so the CSC is the CSR's transpose.
        const auto keep = [rows, cols](vid_t i, vid_t j) {
          return rows.contains(i, j) | cols.contains(j, i);
        };
        std::vector<vid_t>& scratch = ws.buf<vid_t>("kout.filter_scratch");
        filter_adjacency(g.row_ptr(), g.col_idx(), keep, scratch, row_ptr, col_idx);
        filter_adjacency(
            g.col_ptr(), g.row_idx(), [&keep](vid_t j, vid_t i) { return keep(i, j); }, scratch,
            col_ptr, row_idx);
        return;
      }
      std::vector<eid_t>& by_ptr = ws.buf<eid_t>("kout.pickers_ptr");
      std::vector<vid_t>& by = ws.buf<vid_t>("kout.pickers");
      auto& hist = ws.obj<DefaultInitVector<eid_t>>("kout.pickers_hist");
      picks_by_target(cols, col_picks.size(), g.num_rows(), by_ptr, by, hist);
      merge_picks(rows, cols, by_ptr, by, row_ptr, col_idx);
      picks_by_target(rows, row_picks.size(), g.num_cols(), by_ptr, by, hist);
      merge_picks(cols, rows, by_ptr, by, col_ptr, row_idx);
    };
    out.rebuild(g.num_rows(), g.num_cols(), fill);
  };
  // k = 2 on both sides (the registry default) compiles every pick test to
  // straight-line compares; a runtime-stride filter ran k_out at n = 1024
  // on one thread slower than the edge-list assembly it replaced.
  if (row_k == 2 && col_k == 2)
    assemble(PickSet<2>{row_picks.data(), 2}, PickSet<2>{col_picks.data(), 2});
  else
    assemble(PickSet<0>{row_picks.data(), row_k}, PickSet<0>{col_picks.data(), col_k});
}

void k_out_from_scaling_ws(const BipartiteGraph& g, const ScalingResult& scaling, int k,
                           std::uint64_t seed, Workspace& ws, Matching& out) {
  BipartiteGraph& sub = ws.obj<BipartiteGraph>("kout.subgraph");
  k_out_subgraph_ws(g, scaling, k, seed, ws, sub);
  push_relabel_ws(sub, ws, out);
}

} // namespace bmh
