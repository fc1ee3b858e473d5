#include "core/karp_sipser_mt.hpp"

#include <atomic>
#include <stdexcept>

#include "core/workspace.hpp"

namespace bmh {

void unify_choices(vid_t m, vid_t n, std::span<const vid_t> rchoice,
                   std::span<const vid_t> cchoice, std::vector<vid_t>& out) {
  if (rchoice.size() != static_cast<std::size_t>(m) ||
      cchoice.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("unify_choices: size mismatch");
  out.resize(static_cast<std::size_t>(m) + static_cast<std::size_t>(n));
  for (vid_t i = 0; i < m; ++i) {
    const vid_t j = rchoice[static_cast<std::size_t>(i)];
    if (j != kNil && (j < 0 || j >= n))
      throw std::out_of_range("unify_choices: row choice out of range");
    out[static_cast<std::size_t>(i)] = (j == kNil) ? kNil : m + j;
  }
  for (vid_t j = 0; j < n; ++j) {
    const vid_t i = cchoice[static_cast<std::size_t>(j)];
    if (i != kNil && (i < 0 || i >= m))
      throw std::out_of_range("unify_choices: column choice out of range");
    out[static_cast<std::size_t>(m) + static_cast<std::size_t>(j)] = i;
  }
}

std::vector<vid_t>& out_one_chains_ws(std::span<const vid_t> choice, vid_t m,
                                      Workspace& ws) {
  const auto total = static_cast<vid_t>(choice.size());
  // match/deg are concurrently updated; mark only ever transitions 1 -> 0
  // (and is read after the implicit barrier), so relaxed ops suffice there.
  // Plain vectors driven through std::atomic_ref so the storage can live in
  // the workspace (std::vector<std::atomic<T>> cannot be resized).
  std::vector<vid_t>& match = ws.vec<vid_t>("ksmt.match", choice.size());
  std::vector<vid_t>& deg = ws.vec<vid_t>("ksmt.deg", choice.size());
  std::vector<char>& mark = ws.vec<char>("ksmt.mark", choice.size());

  // Initialization, fused with the validation of every entry: an id out of
  // range would index past the arrays, and a same-side choice in a
  // bipartite array would silently corrupt the phase invariants.
  bool well_formed = true;
#pragma omp parallel for schedule(static) reduction(&& : well_formed)
  for (vid_t u = 0; u < total; ++u) {
    const vid_t v = choice[static_cast<std::size_t>(u)];
    std::atomic_ref<vid_t>(match[static_cast<std::size_t>(u)])
        .store(kNil, std::memory_order_relaxed);
    std::atomic_ref<char>(mark[static_cast<std::size_t>(u)])
        .store(v == kNil ? 0 : 1, std::memory_order_relaxed);
    std::atomic_ref<vid_t>(deg[static_cast<std::size_t>(u)])
        .store(v == kNil ? 0 : 1, std::memory_order_relaxed);
    if (v == kNil) continue;
    const vid_t lo = (m == kNil || u >= m) ? 0 : m;
    const vid_t hi = (m == kNil || u < m) ? total : m;
    well_formed = well_formed && v >= lo && v < hi;
  }
  if (!well_formed)
    throw std::invalid_argument(m == kNil ? "out_one_chains: choice out of range"
                                          : "out_one_chains: choice crosses to the same side");

  // deg[v] = 1 (v's own choice edge) + number of vertices that chose v,
  // counting a reciprocal pair {u ↔ v} as the single edge it is.
#pragma omp parallel for schedule(static)
  for (vid_t u = 0; u < total; ++u) {
    const vid_t v = choice[static_cast<std::size_t>(u)];
    if (v == kNil) continue;
    std::atomic_ref<char>(mark[static_cast<std::size_t>(v)])
        .store(0, std::memory_order_relaxed);
    if (choice[static_cast<std::size_t>(v)] != u)
      std::atomic_ref<vid_t>(deg[static_cast<std::size_t>(v)])
          .fetch_add(1, std::memory_order_relaxed);
  }

  // ---- Phase 1: consume out-one chains (paper lines 10–23). ----
  //
  // A note on a benign race: a reciprocal 2-clique {x, y} (x and y chose
  // each other) that becomes out-one from both ends simultaneously can be
  // consumed by two threads at once — thread A (curr = x) CASes match[y]
  // while thread B (curr = y) CASes match[x]. Both succeed and both then
  // store the *same* pair, so the final state is identical; this is why
  // callers derive phase match counts from the match array after the phase
  // rather than from counters incremented inside the racy loop.
#pragma omp parallel for schedule(guided)
  for (vid_t u = 0; u < total; ++u) {
    if (std::atomic_ref<char>(mark[static_cast<std::size_t>(u)])
            .load(std::memory_order_relaxed) != 1)
      continue;
    vid_t curr = u;
    while (curr != kNil) {
      const vid_t nbr = choice[static_cast<std::size_t>(curr)];
      vid_t expected = kNil;
      if (std::atomic_ref<vid_t>(match[static_cast<std::size_t>(nbr)])
              .compare_exchange_strong(
                  expected, curr,
                  std::memory_order_acq_rel,     // win: publish claim of nbr
                  std::memory_order_acquire)) {  // lose: see winner's writes
        // We won nbr: (curr, nbr) is an optimal degree-one match.
        std::atomic_ref<vid_t>(match[static_cast<std::size_t>(curr)])
            // release pairs with the acquire probes on other threads
            .store(nbr, std::memory_order_release);
        const vid_t next = choice[static_cast<std::size_t>(nbr)];
        curr = kNil;
        if (next != kNil &&
            std::atomic_ref<vid_t>(match[static_cast<std::size_t>(next)])
                    // acquire pairs with the winners' release match stores
                    .load(std::memory_order_acquire) == kNil) {
          // nbr chose `next`; nbr is gone, so next loses one in-chooser.
          // AddAndFetch elects exactly one thread to continue with next as
          // the (single, by Lemma 4) newly created out-one vertex.
          if (std::atomic_ref<vid_t>(deg[static_cast<std::size_t>(next)])
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
  return match;
}

void karp_sipser_mt_ws(vid_t m, vid_t n, std::span<const vid_t> choice,
                       KarpSipserMTStats* stats, Workspace& ws, Matching& out) {
  const vid_t total = m + n;
  if (m < 0 || n < 0)
    throw std::invalid_argument("karp_sipser_mt: negative dimension");
  if (choice.size() != static_cast<std::size_t>(total))
    throw std::invalid_argument("karp_sipser_mt: choice size mismatch");
  std::vector<vid_t>& match = out_one_chains_ws(choice, m, ws);

  // Snapshot the phase-1 cardinality (the chain phase's parallel regions
  // ended with implicit barriers, so the match array is settled).
  vid_t phase1 = 0;
  if (stats != nullptr) {
#pragma omp parallel for schedule(static) reduction(+ : phase1)
    for (vid_t i = 0; i < m; ++i)
      if (match[static_cast<std::size_t>(i)] != kNil) ++phase1;
  }

  // ---- Phase 2: remaining components are singletons, 2-cliques, or simple
  // cycles; each free column takes its own choice (paper lines 24–28). ----
#pragma omp parallel for schedule(static)
  for (vid_t u = m; u < total; ++u) {
    const vid_t v = choice[static_cast<std::size_t>(u)];
    if (v == kNil) continue;
    if (std::atomic_ref<vid_t>(match[static_cast<std::size_t>(u)])
                .load(std::memory_order_relaxed) == kNil &&
        std::atomic_ref<vid_t>(match[static_cast<std::size_t>(v)])
                .load(std::memory_order_relaxed) == kNil) {
      std::atomic_ref<vid_t>(match[static_cast<std::size_t>(u)])
          .store(v, std::memory_order_relaxed);
      std::atomic_ref<vid_t>(match[static_cast<std::size_t>(v)])
          .store(u, std::memory_order_relaxed);
    }
  }

  if (stats != nullptr) {
    vid_t final_count = 0;
#pragma omp parallel for schedule(static) reduction(+ : final_count)
    for (vid_t i = 0; i < m; ++i)
      if (match[static_cast<std::size_t>(i)] != kNil) ++final_count;
    stats->phase1_matches = phase1;
    stats->phase2_matches = final_count - phase1;
  }

  out.reset(m, n);
#pragma omp parallel for schedule(static)
  for (vid_t i = 0; i < m; ++i) {
    const vid_t p = match[static_cast<std::size_t>(i)];
    if (p != kNil) {
      out.row_match[static_cast<std::size_t>(i)] = p - m;
      out.col_match[static_cast<std::size_t>(p - m)] = i;
    }
  }
}

} // namespace bmh
