#include "core/choice.hpp"

#include <stdexcept>

namespace bmh {

void sample_csr_choices(std::span<const eid_t> ptr, std::span<const vid_t> adj,
                        std::span<const double> weight, std::uint64_t seed,
                        std::uint64_t salt, std::vector<vid_t>& out) {
  const auto n = static_cast<vid_t>(ptr.empty() ? 0 : ptr.size() - 1);
  out.assign(static_cast<std::size_t>(n), kNil);
  const Rng root(seed);
#pragma omp parallel for schedule(dynamic, 512)
  for (vid_t u = 0; u < n; ++u) {
    const auto first = static_cast<std::size_t>(ptr[static_cast<std::size_t>(u)]);
    const auto last = static_cast<std::size_t>(ptr[static_cast<std::size_t>(u) + 1]);
    if (first == last) continue;
    const std::span<const vid_t> nbrs = adj.subspan(first, last - first);
    Rng rng = root.fork(salt ^ static_cast<std::uint64_t>(u));
    double total = 0.0;
    for (const vid_t v : nbrs) total += weight[static_cast<std::size_t>(v)];
    out[static_cast<std::size_t>(u)] = weighted_pick(nbrs, weight, total, rng);
  }
}

std::vector<vid_t> sample_row_choices(const BipartiteGraph& g,
                                      const std::vector<double>& dc,
                                      std::uint64_t seed) {
  std::vector<vid_t> choice;
  sample_row_choices(g, dc, seed, choice);
  return choice;
}

void sample_row_choices(const BipartiteGraph& g, const std::vector<double>& dc,
                        std::uint64_t seed, std::vector<vid_t>& out) {
  if (dc.size() != static_cast<std::size_t>(g.num_cols()))
    throw std::invalid_argument("sample_row_choices: dc size mismatch");
  sample_csr_choices(g.row_ptr(), g.col_idx(), dc, seed,
                     0x524f575f5349444full /* "ROW_SIDO" salt: row-side lanes */, out);
}

std::vector<vid_t> sample_col_choices(const BipartiteGraph& g,
                                      const std::vector<double>& dr,
                                      std::uint64_t seed) {
  std::vector<vid_t> choice;
  sample_col_choices(g, dr, seed, choice);
  return choice;
}

void sample_col_choices(const BipartiteGraph& g, const std::vector<double>& dr,
                        std::uint64_t seed, std::vector<vid_t>& out) {
  if (dr.size() != static_cast<std::size_t>(g.num_rows()))
    throw std::invalid_argument("sample_col_choices: dr size mismatch");
  sample_csr_choices(g.col_ptr(), g.row_idx(), dr, seed,
                     0x434f4c5f53494445ull /* "COL_SIDE" salt: column-side lanes */, out);
}

} // namespace bmh
