#pragma once
/// \file koenig.hpp
/// \brief König certification: minimum vertex covers from maximum
/// matchings.
///
/// König's theorem: in a bipartite graph the maximum matching cardinality
/// equals the minimum vertex cover size. Given a *maximum* matching, the
/// cover is constructed from the alternating-reachability sweep (the one
/// that also yields the Dulmage–Mendelsohn V part): let Z be everything
/// reachable from free rows by alternating paths; the cover is
/// (rows \ Z) ∪ (columns ∩ Z).
///
/// The pair (matching, cover) with |M| = |C| is a self-checking optimality
/// certificate: the tests use it to validate every exact solver without
/// trusting any single implementation.

#include <vector>

#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bmh {

/// The side whose free vertices an alternating sweep starts from.
enum class FreeSide : unsigned char { Rows, Columns };

/// The vertices an alternating sweep reached, per side.
struct AlternatingReach {
  std::vector<bool> rows;
  std::vector<bool> cols;
};

/// Alternating BFS from every free vertex of side `from`: to the other side
/// along any edge, back along matching edges. With a maximum matching, the
/// sweep from the free columns marks the Dulmage–Mendelsohn H part and the
/// sweep from the free rows marks the V part (the König set Z). O(n + tau).
[[nodiscard]] AlternatingReach alternating_reach(const BipartiteGraph& g, const Matching& m,
                                                 FreeSide from);

struct VertexCover {
  std::vector<bool> row_in_cover;
  std::vector<bool> col_in_cover;

  [[nodiscard]] vid_t size() const noexcept;
};

/// Builds the König cover from a matching of `g`. The result is a valid
/// cover with |C| = |M| **iff** `m` is maximum; for non-maximum matchings
/// the construction still returns a vertex set but it may fail to cover
/// (which is exactly how is_maximum_matching detects non-optimality).
[[nodiscard]] VertexCover koenig_cover(const BipartiteGraph& g, const Matching& m);

/// True iff every edge has at least one endpoint in the cover.
[[nodiscard]] bool is_vertex_cover(const BipartiteGraph& g, const VertexCover& c);

/// True iff `m` is a *maximum* matching of `g`: valid, and the König
/// construction yields a cover of equal size. O(n + tau).
[[nodiscard]] bool is_maximum_matching(const BipartiteGraph& g, const Matching& m);

} // namespace bmh
