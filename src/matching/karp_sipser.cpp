#include "matching/karp_sipser.hpp"

#include <array>
#include <span>
#include <utility>
#include <vector>

#include "core/workspace.hpp"
#include "util/rng.hpp"

namespace bmh {

namespace {

/// Unified-id helpers: rows are [0, m), columns are [m, m+n).
/// All working storage is leased from the caller's Workspace, so repeated
/// invocations on same-shaped graphs are allocation-free.
///
/// One array holds each vertex's whole state: a matched vertex stores its
/// unified partner (>= 0), a free one stores -1 - (its number of free
/// neighbours). The neighbour scans that dominate the run then touch one
/// entry per neighbour, not a partner entry and a degree entry. Degrees fit:
/// a graph has no duplicate edges, so a degree is below the other side's
/// vid_t count.
class KsState {
public:
  KsState(const BipartiteGraph& g, std::uint64_t seed, Workspace& ws)
      : g_(g),
        m_(g.num_rows()),
        rng_(seed),
        state_(ws.vec<vid_t>("ks.state", static_cast<std::size_t>(m_ + g.num_cols()))),
        stack_(ws.buf<vid_t>("ks.stack")),
        pool_(ws.vec<std::pair<vid_t, vid_t>>(
            "ks.pool", static_cast<std::size_t>(g.num_edges()))) {
    const vid_t total = m_ + g.num_cols();
    for (vid_t i = 0; i < m_; ++i)
      state_[static_cast<std::size_t>(i)] = free_with_degree(g.row_degree(i));
    for (vid_t j = 0; j < g.num_cols(); ++j)
      state_[static_cast<std::size_t>(m_ + j)] = free_with_degree(g.col_degree(j));
    for (vid_t u = 0; u < total; ++u)
      if (state_[static_cast<std::size_t>(u)] == kFreeDegreeOne) stack_.push_back(u);

    // Live-edge pool for Phase 2. Every draw retires its pool entry (the
    // matched edge is as dead as a stale one), so picks stay uniform over
    // the edges whose endpoints are both still free and the total number of
    // draws is bounded by the number of edges (and ends with the last live
    // edge, see live_edges_).
    eid_t e = 0;
    for (vid_t i = 0; i < m_; ++i)
      for (const vid_t j : g.row_neighbors(i)) pool_[static_cast<std::size_t>(e++)] = {i, j};
  }

  void run(KarpSipserStats* stats) {
    std::size_t pooled = pool_.size();
    while (drawn_ < pooled && drawn_ < kLookahead) draw_ahead(drawn_);
    while (true) {
      drain_degree_one(stats);
      // No edge joins two free vertices: done. (`<=`: a graph holding a
      // duplicate edge, which the library never builds, over-subtracts, and
      // then only stops early; the count never exceeds the live edges, so
      // the draws below always find one.)
      if (live_edges_ <= 0) break;
      // Phase 2 pick: uniform over live edges via swap-removal. The drawn
      // entry is removed whether it matches or is stale — leaving a matched
      // edge in the pool would make it re-drawable. Every live edge is
      // still pooled, so a draw matches before the pool runs out.
      while (true) {
        const std::size_t idx = next_draw();
        const auto [i, j] = pool_[idx];
        if (stats != nullptr) ++stats->phase2_draws;
        pool_[idx] = pool_[--pooled];
        if (matched(i) || matched(m_ + j)) continue;
        match_pair(i, m_ + j);
        reduce_neighbors(i);
        reduce_neighbors(m_ + j);
        if (stats != nullptr) ++stats->phase2_matches;
        break;
      }
    }
  }

  void result_into(Matching& out) const {
    out.reset(m_, g_.num_cols());
    for (vid_t i = 0; i < m_; ++i)
      if (matched(i)) out.match(i, state_[static_cast<std::size_t>(i)] - m_);
  }

  void drain_degree_one(KarpSipserStats* stats) {
    while (!stack_.empty()) {
      const vid_t u = stack_.back();
      stack_.pop_back();
      if (state_[static_cast<std::size_t>(u)] != kFreeDegreeOne) continue;
      const vid_t v = unique_free_neighbor(u);
      if (v == kNil) continue;  // defensive: u has one free neighbour
      match_pair(u, v);
      reduce_neighbors(v);
      if (stats != nullptr) ++stats->phase1_matches;
    }
  }

private:
  /// The state of a free vertex with `degree` free neighbours.
  [[nodiscard]] static vid_t free_with_degree(eid_t degree) {
    return static_cast<vid_t>(-1 - degree);
  }
  static constexpr vid_t kFreeDegreeOne = -2;

  [[nodiscard]] bool matched(vid_t u) const {
    return state_[static_cast<std::size_t>(u)] >= 0;
  }

  /// Phase 2's draws are taken kLookahead steps before their use. Every
  /// draw retires one pool entry, so draw t is `next_below(E - t)` whatever
  /// the matching state (Phase 1 never touches the RNG), and the ring holds
  /// the next kLookahead of them. A draw's pool entry is prefetched when it
  /// enters the ring and its endpoints' states half a ring before use, read
  /// from the pool as it stands then; a swap-removal in between only makes
  /// that hint stale. The RNG is consumed in exactly the order, and with
  /// exactly the bounds, of drawing one index per step.
  static constexpr std::size_t kLookahead = 64;

  /// Draws index number `drawn_` into ring slot `slot`.
  void draw_ahead(std::size_t slot) {
    const std::size_t edges = pool_.size();
    ring_[slot] = static_cast<std::size_t>(rng_.next_below(edges - drawn_));
    ++drawn_;
    __builtin_prefetch(&pool_[ring_[slot]]);
  }

  /// Returns draw number `used_` and refills its slot kLookahead ahead.
  [[nodiscard]] std::size_t next_draw() {
    const std::size_t t = used_++;
    const std::size_t slot = t % kLookahead;
    const std::size_t idx = ring_[slot];
    if (drawn_ < pool_.size()) draw_ahead(slot);
    if (const std::size_t ahead = t + kLookahead / 2; ahead < drawn_) {
      const auto [i, j] = pool_[ring_[ahead % kLookahead]];
      __builtin_prefetch(&state_[static_cast<std::size_t>(i)]);
      __builtin_prefetch(&state_[static_cast<std::size_t>(m_ + j)]);
    }
    return idx;
  }

  [[nodiscard]] std::span<const vid_t> neighbors(vid_t u) const {
    return u < m_ ? g_.row_neighbors(u) : g_.col_neighbors(u - m_);
  }
  [[nodiscard]] vid_t to_unified(vid_t u, vid_t nbr) const {
    return u < m_ ? m_ + nbr : nbr;
  }

  [[nodiscard]] vid_t unique_free_neighbor(vid_t u) const {
    for (const vid_t raw : neighbors(u)) {
      const vid_t w = to_unified(u, raw);
      if (!matched(w)) return w;
    }
    return kNil;
  }

  /// Matches the free vertices u and v. The caller then reduces the
  /// neighbours that lost a free neighbour: both endpoints' in Phase 2, only
  /// v's in Phase 1, where v was u's one free neighbour and u's others are
  /// all matched already.
  void match_pair(vid_t u, vid_t v) {
    // Both are free, so their states hold their free-neighbour counts: the
    // live edges this match retires are those, less the shared edge (u, v).
    live_edges_ -= static_cast<eid_t>(-1 - state_[static_cast<std::size_t>(u)]) +
                   static_cast<eid_t>(-1 - state_[static_cast<std::size_t>(v)]) - 1;
    state_[static_cast<std::size_t>(u)] = v;
    state_[static_cast<std::size_t>(v)] = u;
  }

  /// One fewer free neighbour for each free neighbour of the newly matched
  /// `u`; those left with exactly one go on the Phase 1 stack. Whether a
  /// neighbour is matched is a coin flip the branch predictor loses, so the
  /// decrement is branch-free: a matched state (>= 0) is left as it is and
  /// is never kFreeDegreeOne.
  void reduce_neighbors(vid_t u) {
    for (const vid_t raw : neighbors(u)) {
      const vid_t w = to_unified(u, raw);
      vid_t& s = state_[static_cast<std::size_t>(w)];
      s += static_cast<vid_t>(s < 0);
      if (s == kFreeDegreeOne) stack_.push_back(w);
    }
  }

  const BipartiteGraph& g_;
  vid_t m_;
  Rng rng_;
  std::vector<vid_t>& state_;
  std::vector<vid_t>& stack_;
  std::vector<std::pair<vid_t, vid_t>>& pool_;
  /// Edges whose endpoints are both free. Phase 2 stops when it reaches 0:
  /// every remaining pool entry is then stale.
  eid_t live_edges_ = g_.num_edges();
  std::array<std::size_t, kLookahead> ring_{};
  std::size_t drawn_ = 0;  ///< draws taken from the RNG
  std::size_t used_ = 0;   ///< draws handed to Phase 2
};

} // namespace

void karp_sipser_ws(const BipartiteGraph& g, std::uint64_t seed, KarpSipserStats* stats,
                    Workspace& ws, Matching& out) {
  KsState state(g, seed, ws);
  state.run(stats);
  state.result_into(out);
}

} // namespace bmh
