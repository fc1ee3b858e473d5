#pragma once
/// \file one_out_structure.hpp
/// \brief TwoSidedMatch's choice subgraph as an explicit graph.
///
/// Lemma 1 of the paper: every connected component of the "1-out ∪ 1-in"
/// graph built from the row and column choices contains at most one simple
/// cycle, which is what makes KarpSipserMT exact on it. Materializing that
/// graph lets an exact solver certify KarpSipserMT's output.

#include <span>

#include "graph/bipartite_graph.hpp"
#include "util/types.hpp"

namespace bmh {

/// Materializes the choice subgraph as an explicit BipartiteGraph (at most
/// m + n edges), so exact solvers can certify KarpSipserMT's output.
[[nodiscard]] BipartiteGraph materialize_choice_graph(vid_t m, vid_t n,
                                                      std::span<const vid_t> rchoice,
                                                      std::span<const vid_t> cchoice);

} // namespace bmh
