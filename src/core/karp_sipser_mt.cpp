#include "core/karp_sipser_mt.hpp"

#include <atomic>
#include <stdexcept>

#include "core/workspace.hpp"
#include "graph/count_scatter.hpp"

namespace bmh {

void unify_choices(vid_t m, vid_t n, std::span<const vid_t> rchoice,
                   std::span<const vid_t> cchoice, std::vector<vid_t>& out) {
  if (rchoice.size() != static_cast<std::size_t>(m) ||
      cchoice.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("unify_choices: size mismatch");
  out.resize(static_cast<std::size_t>(m) + static_cast<std::size_t>(n));
  const vid_t* const row_pick = rchoice.data();
  const vid_t* const col_pick = cchoice.data();
  vid_t* const unified = out.data();
  // Every entry is written, then the first bad side named: rows first, as
  // a sweep in id order would find them.
  bool rows_ok = true;
  bool cols_ok = true;
#pragma omp parallel if (out.size() >= kParallelMinItems) reduction(&& : rows_ok, cols_ok)
  {
#pragma omp for schedule(static) nowait
    for (vid_t i = 0; i < m; ++i) {
      const vid_t j = row_pick[i];
      rows_ok = rows_ok && (j == kNil || (j >= 0 && j < n));
      unified[i] = j == kNil ? kNil : m + j;
    }
#pragma omp for schedule(static)
    for (vid_t j = 0; j < n; ++j) {
      const vid_t i = col_pick[j];
      cols_ok = cols_ok && (i == kNil || (i >= 0 && i < m));
      unified[m + j] = i;
    }
  }
  if (!rows_ok) throw std::out_of_range("unify_choices: row choice out of range");
  if (!cols_ok) throw std::out_of_range("unify_choices: column choice out of range");
}

std::vector<vid_t>& out_one_chains_ws(std::span<const vid_t> choice, vid_t m,
                                      Workspace& ws) {
  const auto total = static_cast<vid_t>(choice.size());
  // Plain workspace vectors, so their storage is reused across calls. Only
  // what two threads can touch at once goes through std::atomic_ref:
  // match/deg in the chain walk, and mark/deg in the degree count. Every
  // other access has one owner (its loop index) or follows a barrier.
  std::vector<vid_t>& match_vec = ws.vec<vid_t>("ksmt.match", choice.size());
  vid_t* const match = match_vec.data();
  vid_t* const deg = ws.vec<vid_t>("ksmt.deg", choice.size()).data();
  char* const mark = ws.vec<char>("ksmt.mark", choice.size()).data();
  const vid_t* const pick = choice.data();

  // Initialization, fused with the validation of every entry: an id out of
  // range would index past the arrays, and a same-side choice in a
  // bipartite array would silently corrupt the phase invariants.
  bool well_formed = true;
#pragma omp parallel for schedule(static) reduction(&& : well_formed)
  for (vid_t u = 0; u < total; ++u) {
    const vid_t v = pick[u];
    match[u] = kNil;
    mark[u] = v == kNil ? 0 : 1;
    deg[u] = v == kNil ? 0 : 1;
    if (v == kNil) continue;
    const vid_t lo = (m == kNil || u >= m) ? 0 : m;
    const vid_t hi = (m == kNil || u < m) ? total : m;
    well_formed = well_formed && v >= lo && v < hi;
  }
  if (!well_formed)
    throw std::invalid_argument(m == kNil ? "out_one_chains: choice out of range"
                                          : "out_one_chains: choice crosses to the same side");

  // deg[v] = 1 (v's own choice edge) + number of vertices that chose v,
  // counting a reciprocal pair {u ↔ v} as the single edge it is. mark only
  // ever goes 1 -> 0 here, so relaxed stores suffice.
#pragma omp parallel for schedule(static)
  for (vid_t u = 0; u < total; ++u) {
    const vid_t v = pick[u];
    if (v == kNil) continue;
    std::atomic_ref<char>(mark[v]).store(0, std::memory_order_relaxed);
    if (pick[v] != u) std::atomic_ref<vid_t>(deg[v]).fetch_add(1, std::memory_order_relaxed);
  }

  // ---- Phase 1: consume out-one chains (paper lines 10–23). ----
  //
  // A note on a benign race: a reciprocal 2-clique {x, y} (x and y chose
  // each other) that becomes out-one from both ends simultaneously can be
  // consumed by two threads at once — thread A (curr = x) CASes match[y]
  // while thread B (curr = y) CASes match[x]. Both succeed and both then
  // store the *same* pair, so the final state is identical; this is why
  // callers derive phase match counts from the match array after the phase
  // rather than from counters incremented inside the racy loop. mark is
  // only read here, after the degree count's barrier.
#pragma omp parallel for schedule(guided)
  for (vid_t u = 0; u < total; ++u) {
    if (mark[u] != 1) continue;
    vid_t curr = u;
    while (curr != kNil) {
      const vid_t nbr = pick[curr];
      vid_t expected = kNil;
      if (std::atomic_ref<vid_t>(match[nbr]).compare_exchange_strong(
              expected, curr,
              std::memory_order_acq_rel,     // win: publish claim of nbr
              std::memory_order_acquire)) {  // lose: see winner's writes
        // We won nbr: (curr, nbr) is an optimal degree-one match.
        std::atomic_ref<vid_t>(match[curr])
            // release pairs with the acquire probes on other threads
            .store(nbr, std::memory_order_release);
        const vid_t next = pick[nbr];
        curr = kNil;
        if (next != kNil &&
            std::atomic_ref<vid_t>(match[next])
                    // acquire pairs with the winners' release match stores
                    .load(std::memory_order_acquire) == kNil) {
          // nbr chose `next`; nbr is gone, so next loses one in-chooser.
          // AddAndFetch elects exactly one thread to continue with next as
          // the (single, by Lemma 4) newly created out-one vertex.
          if (std::atomic_ref<vid_t>(deg[next])
                      // acq_rel: the elected thread sees prior decrementers
                      .fetch_sub(1, std::memory_order_acq_rel) -
                  1 ==
              1)
            curr = next;
        }
      } else {
        // Another thread matched nbr first; curr has no other neighbour
        // worth pursuing here (it was out-one), so this chain ends.
        curr = kNil;
      }
    }
  }
  return match_vec;
}

void karp_sipser_mt_ws(vid_t m, vid_t n, std::span<const vid_t> choice,
                       KarpSipserMTStats* stats, Workspace& ws, Matching& out) {
  const vid_t total = m + n;
  if (m < 0 || n < 0)
    throw std::invalid_argument("karp_sipser_mt: negative dimension");
  if (choice.size() != static_cast<std::size_t>(total))
    throw std::invalid_argument("karp_sipser_mt: choice size mismatch");
  vid_t* const match = out_one_chains_ws(choice, m, ws).data();
  const vid_t* const pick = choice.data();

  // Snapshot the phase-1 cardinality (the chain phase's parallel regions
  // ended with implicit barriers, so the match array is settled).
  vid_t phase1 = 0;
  if (stats != nullptr) {
#pragma omp parallel for schedule(static) reduction(+ : phase1)
    for (vid_t i = 0; i < m; ++i) phase1 += match[i] != kNil;
  }

  // ---- Phase 2: remaining components are singletons, 2-cliques, or simple
  // cycles; each free column takes its own choice (paper lines 24–28). ----
  // Plain accesses: in such a component a free row is the choice of at
  // most one free column (Lemma 3), so no two iterations touch one entry.
#pragma omp parallel for schedule(static)
  for (vid_t u = m; u < total; ++u) {
    const vid_t v = pick[u];
    if (v != kNil && match[u] == kNil && match[v] == kNil) {
      match[u] = v;
      match[v] = u;
    }
  }

  // Both sides of the match array are final and agree (match[u] = v iff
  // match[v] = u), so each side of `out` is a copy of its own half.
  out.row_match.resize(static_cast<std::size_t>(m));
  out.col_match.resize(static_cast<std::size_t>(n));
  vid_t* const row_match = out.row_match.data();
  vid_t* const col_match = out.col_match.data();
  vid_t final_count = 0;
#pragma omp parallel for schedule(static) reduction(+ : final_count)
  for (vid_t u = 0; u < total; ++u) {
    const vid_t p = match[u];
    if (u < m) {
      row_match[u] = p == kNil ? kNil : p - m;
      final_count += p != kNil;
    } else {
      col_match[u - m] = p;
    }
  }
  if (stats != nullptr) {
    stats->phase1_matches = phase1;
    stats->phase2_matches = final_count - phase1;
  }
}

} // namespace bmh
