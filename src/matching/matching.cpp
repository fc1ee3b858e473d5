#include "matching/matching.hpp"

#include <sstream>
#include <stdexcept>

namespace bmh {

vid_t Matching::cardinality() const noexcept {
  vid_t count = 0;
  const auto n = static_cast<vid_t>(row_match.size());
#pragma omp parallel for schedule(static) reduction(+ : count)
  for (vid_t i = 0; i < n; ++i)
    if (row_match[static_cast<std::size_t>(i)] != kNil) ++count;
  return count;
}

void greedy_init(const BipartiteGraph& g, Matching& m) {
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    if (m.row_matched(i)) continue;
    for (const vid_t j : g.row_neighbors(i)) {
      if (!m.col_matched(j)) {
        m.match(i, j);
        break;
      }
    }
  }
}

Matching initial_matching(const BipartiteGraph& g, const Matching* initial,
                          const char* solver) {
  if (initial == nullptr) return Matching(g.num_rows(), g.num_cols());
  if (!is_valid_matching(g, *initial))
    throw std::invalid_argument(std::string(solver) + ": initial matching invalid");
  return *initial;
}

Matching matching_from_col_view(vid_t num_rows, const std::vector<vid_t>& col_match) {
  Matching m;
  matching_from_col_view(num_rows, col_match, m);
  return m;
}

void matching_from_col_view(vid_t num_rows, const std::vector<vid_t>& col_match,
                            Matching& out) {
  out.row_match.assign(static_cast<std::size_t>(num_rows), kNil);
  out.col_match = col_match;
  const auto num_cols = static_cast<vid_t>(col_match.size());
  for (vid_t j = 0; j < num_cols; ++j) {
    const vid_t i = col_match[static_cast<std::size_t>(j)];
    if (i == kNil) continue;
    if (i < 0 || i >= num_rows) {
      std::ostringstream os;
      os << "matching_from_col_view: col_match[" << j << "] = " << i
         << " is out of range [0, " << num_rows << ")";
      throw std::out_of_range(os.str());
    }
    // Duplicate claims keep the last column's write (see the col-view test:
    // OneSidedMatch's racy writes never produce them, but the reconstruction
    // stays total on inconsistent views rather than throwing).
    out.row_match[static_cast<std::size_t>(i)] = j;
  }
}

std::string describe_matching_violation(const BipartiteGraph& g, const Matching& m) {
  std::ostringstream os;
  if (m.row_match.size() != static_cast<std::size_t>(g.num_rows())) {
    os << "row_match size " << m.row_match.size() << " != num_rows " << g.num_rows();
    return os.str();
  }
  if (m.col_match.size() != static_cast<std::size_t>(g.num_cols())) {
    os << "col_match size " << m.col_match.size() << " != num_cols " << g.num_cols();
    return os.str();
  }
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    const vid_t j = m.row_match[static_cast<std::size_t>(i)];
    if (j == kNil) continue;
    if (j < 0 || j >= g.num_cols()) {
      os << "row " << i << " matched to out-of-range column " << j;
      return os.str();
    }
    if (m.col_match[static_cast<std::size_t>(j)] != i) {
      os << "row " << i << " matched to column " << j << " but col_match[" << j
         << "] = " << m.col_match[static_cast<std::size_t>(j)];
      return os.str();
    }
    if (!g.has_edge(i, j)) {
      os << "matched pair (" << i << ", " << j << ") is not an edge";
      return os.str();
    }
  }
  for (vid_t j = 0; j < g.num_cols(); ++j) {
    const vid_t i = m.col_match[static_cast<std::size_t>(j)];
    if (i == kNil) continue;
    if (i < 0 || i >= g.num_rows()) {
      os << "column " << j << " matched to out-of-range row " << i;
      return os.str();
    }
    if (m.row_match[static_cast<std::size_t>(i)] != j) {
      os << "column " << j << " matched to row " << i << " but row_match[" << i
         << "] = " << m.row_match[static_cast<std::size_t>(i)];
      return os.str();
    }
  }
  return {};
}

bool is_valid_matching(const BipartiteGraph& g, const Matching& m) {
  // The same checks as describe_matching_violation(), without the message:
  // each side in one parallel loop, any violation sets `bad`.
  if (m.row_match.size() != static_cast<std::size_t>(g.num_rows()) ||
      m.col_match.size() != static_cast<std::size_t>(g.num_cols()))
    return false;
  bool bad = false;
#pragma omp parallel for schedule(static) reduction(|| : bad)
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    const vid_t j = m.row_match[static_cast<std::size_t>(i)];
    if (j == kNil) continue;
    if (j < 0 || j >= g.num_cols() || m.col_match[static_cast<std::size_t>(j)] != i) {
      bad = true;
      continue;
    }
    // The whole row, without an early exit: where j sits varies with every
    // matching, so a branch out of the scan would mispredict.
    bool found = false;
    for (const vid_t v : g.row_neighbors(i)) found |= v == j;
    bad |= !found;
  }
  if (bad) return false;
#pragma omp parallel for schedule(static) reduction(|| : bad)
  for (vid_t j = 0; j < g.num_cols(); ++j) {
    const vid_t i = m.col_match[static_cast<std::size_t>(j)];
    if (i == kNil) continue;
    if (i < 0 || i >= g.num_rows() || m.row_match[static_cast<std::size_t>(i)] != j)
      bad = true;
  }
  return !bad;
}

bool is_maximal_matching(const BipartiteGraph& g, const Matching& m) {
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    if (m.row_matched(i)) continue;
    for (const vid_t j : g.row_neighbors(i))
      if (!m.col_matched(j)) return false;
  }
  return true;
}

} // namespace bmh
