#pragma once
/// \file matching.hpp
/// \brief The Matching value type and validity checking.

#include <cassert>
#include <string>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "util/types.hpp"

namespace bmh {

/// A (partial) matching stored from both sides: `row_match[i]` is the column
/// matched to row i (or kNil), `col_match[j]` the row matched to column j.
/// A valid matching keeps the two views consistent.
struct Matching {
  std::vector<vid_t> row_match;
  std::vector<vid_t> col_match;

  Matching() = default;
  Matching(vid_t num_rows, vid_t num_cols)
      : row_match(static_cast<std::size_t>(num_rows), kNil),
        col_match(static_cast<std::size_t>(num_cols), kNil) {}

  /// Re-dimensions to an all-free matching, reusing the vectors' capacity —
  /// the allocation-free equivalent of `*this = Matching(rows, cols)` that
  /// the workspace-aware algorithms use on their output parameter.
  void reset(vid_t num_rows, vid_t num_cols) {
    row_match.assign(static_cast<std::size_t>(num_rows), kNil);
    col_match.assign(static_cast<std::size_t>(num_cols), kNil);
  }

  /// Number of matched pairs.
  [[nodiscard]] vid_t cardinality() const noexcept;

  /// Records the pair (i, j); both endpoints must currently be free.
  void match(vid_t i, vid_t j) noexcept {
    assert(i >= 0 && static_cast<std::size_t>(i) < row_match.size());
    assert(j >= 0 && static_cast<std::size_t>(j) < col_match.size());
    assert(row_match[static_cast<std::size_t>(i)] == kNil);
    assert(col_match[static_cast<std::size_t>(j)] == kNil);
    row_match[static_cast<std::size_t>(i)] = j;
    col_match[static_cast<std::size_t>(j)] = i;
  }

  /// Redirects row i and column j to each other *without* requiring them to
  /// be free — the augmenting-path flip primitive. Flipping a path rewrites
  /// every pair along it, so stale partner entries are overwritten by the
  /// neighbouring flips; use match() everywhere else.
  void rematch(vid_t i, vid_t j) noexcept {
    assert(i >= 0 && static_cast<std::size_t>(i) < row_match.size());
    assert(j >= 0 && static_cast<std::size_t>(j) < col_match.size());
    row_match[static_cast<std::size_t>(i)] = j;
    col_match[static_cast<std::size_t>(j)] = i;
  }

  [[nodiscard]] bool row_matched(vid_t i) const noexcept {
    return row_match[static_cast<std::size_t>(i)] != kNil;
  }
  [[nodiscard]] bool col_matched(vid_t j) const noexcept {
    return col_match[static_cast<std::size_t>(j)] != kNil;
  }
};

/// Greedy warm start shared by the exact solvers: each free row takes its
/// first free neighbour. Cuts the number of Hopcroft–Karp phases roughly in
/// half in practice.
void greedy_init(const BipartiteGraph& g, Matching& m);

/// Where a warm-started exact solve starts: a copy of `initial`, or the
/// empty matching when it is null. Throws std::invalid_argument naming
/// `solver` when `initial` is not a valid matching of `g`.
[[nodiscard]] Matching initial_matching(const BipartiteGraph& g, const Matching* initial,
                                        const char* solver);

/// Reconstructs the row view from a column view (used by OneSidedMatch,
/// whose racy writes leave only `cmatch` authoritative). Throws
/// std::out_of_range if an entry is neither kNil nor a row id in
/// [0, num_rows).
[[nodiscard]] Matching matching_from_col_view(vid_t num_rows,
                                              const std::vector<vid_t>& col_match);

/// Allocation-free variant: writes the reconstruction into `out` (reusing
/// its capacity). `col_match` must not alias `out.col_match`.
void matching_from_col_view(vid_t num_rows, const std::vector<vid_t>& col_match,
                            Matching& out);

/// Checks that `m` is a valid matching of `g`: sizes agree, views are
/// mutually consistent, every matched pair is an edge of `g`, and no vertex
/// appears twice. Returns an empty string when valid, else a description of
/// the first violation (handy in test failure messages).
[[nodiscard]] std::string describe_matching_violation(const BipartiteGraph& g,
                                                      const Matching& m);

/// True iff describe_matching_violation() would return an empty string. The
/// same checks run as two OpenMP loops (rows, then columns) that build no
/// message; describe_matching_violation() stays the one source of error
/// text.
[[nodiscard]] bool is_valid_matching(const BipartiteGraph& g, const Matching& m);

/// True iff `m` is maximal in `g` (no edge joins two free vertices). Every
/// maximal matching is at least half of maximum — the classic cheap bound.
[[nodiscard]] bool is_maximal_matching(const BipartiteGraph& g, const Matching& m);

} // namespace bmh
