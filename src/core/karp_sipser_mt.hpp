#pragma once
/// \file karp_sipser_mt.hpp
/// \brief KarpSipserMT (paper Algorithm 4): the specialized multithreaded
/// Karp–Sipser that is *exact* on TwoSidedMatch's choice subgraphs.
///
/// The input graph is given implicitly by the `choice` array over unified
/// vertex ids (rows `[0, m)`, columns `[m, m+n)`): the edge set is
/// {{u, choice[u]}}. Every component of such a graph contains at most one
/// simple cycle (Lemma 1), which makes Karp–Sipser exact on it and allows
/// two crucial simplifications (paper §3.2):
///
///  * Phase 1 tracks only *out-one* vertices (unmatched u whose choice
///    target is unmatched and whom no unmatched vertex chose). Consuming an
///    out-one vertex creates at most one new out-one vertex (Lemma 4), so
///    the phase follows chains without any worklist; a CAS arbitrates
///    matches, and an atomic decrement on `deg` elects the single thread
///    that continues each chain.
///  * Phase 2 is a plain parallel-for: in the remaining graph (singletons,
///    2-cliques and simple cycles) the column-side choice edges form a
///    maximum matching (Lemma 3), so each free column just takes its choice.
///
/// Phase 1 never uses bipartiteness, so it is one function,
/// `out_one_chains_ws` (lines 1–23: initialization, degree count and the
/// chain walk), called by both `karp_sipser_mt_ws` here and the undirected
/// `one_out_karp_sipser_ws` (undirected/matching.hpp). Each caller keeps
/// only its own Phase 2: the Lemma-3 column pass here, the walk of the
/// surviving (possibly odd) cycles there.

#include <cstdint>
#include <span>
#include <vector>

#include "core/workspace.hpp"
#include "matching/matching.hpp"
#include "util/types.hpp"

namespace bmh {

struct KarpSipserMTStats {
  vid_t phase1_matches = 0;  ///< pairs matched by out-one chain consumption
  vid_t phase2_matches = 0;  ///< pairs matched in the cycle-resolution phase
};

/// Runs Algorithm 4. `choice[u]` is a unified vertex id (the partner chosen
/// by u) or kNil for isolated vertices; `m`/`n` are the row/column counts.
/// The matching written into `out` is maximum on the choice subgraph
/// regardless of the number of threads. The match/deg/mark arrays are
/// leased from `ws` (driven through std::atomic_ref so plain vectors can be
/// reused); warm calls allocate nothing.
void karp_sipser_mt_ws(vid_t m, vid_t n, std::span<const vid_t> choice,
                       KarpSipserMTStats* stats, Workspace& ws, Matching& out);

/// Lines 1–23 of Algorithm 4 (Phase 1 and its initialization) on a
/// functional graph {{u, choice[u]}} over ids [0, choice.size()). With
/// `m` != kNil the array is bipartite (rows [0, m) must choose columns
/// [m, size) and columns rows); with `m` == kNil any id in range is allowed.
/// Every entry is validated (kNil or in its range) before the chains run;
/// a bad one throws std::invalid_argument. Returns the match array (leased
/// under "ksmt.match", valid until that tag is leased again): match[u] is
/// u's Phase-1 partner or kNil.
[[nodiscard]] std::vector<vid_t>& out_one_chains_ws(std::span<const vid_t> choice, vid_t m,
                                                    Workspace& ws);

/// Builds the unified choice array from per-side local choices (rchoice[i]
/// is a column id or kNil; cchoice[j] is a row id or kNil) into `out`
/// (capacity reused).
void unify_choices(vid_t m, vid_t n, std::span<const vid_t> rchoice,
                   std::span<const vid_t> cchoice, std::vector<vid_t>& out);

} // namespace bmh
