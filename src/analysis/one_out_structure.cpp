#include "analysis/one_out_structure.hpp"

#include <stdexcept>

#include "graph/builder.hpp"

namespace bmh {

BipartiteGraph materialize_choice_graph(vid_t m, vid_t n,
                                        std::span<const vid_t> rchoice,
                                        std::span<const vid_t> cchoice) {
  if (rchoice.size() != static_cast<std::size_t>(m) ||
      cchoice.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("materialize_choice_graph: size mismatch");
  GraphBuilder b(m, n);
  b.reserve(static_cast<std::size_t>(m) + static_cast<std::size_t>(n));
  for (vid_t i = 0; i < m; ++i)
    if (rchoice[static_cast<std::size_t>(i)] != kNil)
      b.add_edge(i, rchoice[static_cast<std::size_t>(i)]);
  for (vid_t j = 0; j < n; ++j)
    if (cchoice[static_cast<std::size_t>(j)] != kNil)
      b.add_edge(cchoice[static_cast<std::size_t>(j)], j);
  return b.build();
}

} // namespace bmh
