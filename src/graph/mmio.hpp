#pragma once
/// \file mmio.hpp
/// \brief Matrix Market reader.
///
/// The paper evaluates on matrices from the UFL (SuiteSparse) collection,
/// which ship in Matrix Market format. We read `matrix coordinate`
/// files of any field (pattern/real/integer/complex — values are discarded,
/// only the structure matters for cardinality matching) and both `general`
/// and `symmetric`-family symmetries (symmetric entries are mirrored).

#include <iosfwd>
#include <string>

#include "graph/bipartite_graph.hpp"

namespace bmh {

/// Reads a Matrix Market coordinate file into a bipartite graph whose rows
/// and columns are the matrix rows and columns. Throws std::runtime_error
/// with a line-numbered message on malformed input — including non-comment
/// content after the declared entry count (a truncated count would
/// otherwise silently drop entries).
[[nodiscard]] BipartiteGraph read_matrix_market(std::istream& in);
[[nodiscard]] BipartiteGraph read_matrix_market_file(const std::string& path);

} // namespace bmh
