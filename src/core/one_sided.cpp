#include "core/one_sided.hpp"

#include <atomic>
#include <vector>

#include "core/choice.hpp"
#include "core/workspace.hpp"
#include "scaling/sinkhorn_knopp.hpp"

namespace bmh {

void one_sided_from_scaling_ws(const BipartiteGraph& g, const ScalingResult& scaling,
                               std::uint64_t seed, Workspace& ws, Matching& out) {
  // Each row's pick; kNil for empty rows.
  std::vector<vid_t>& rchoice = ws.buf<vid_t>("os.rchoice");
  sample_row_choices(g, scaling.dc, seed, rchoice);

  // cmatch[j] <- i for every row pick, with last-writer-wins races exactly
  // as in the paper. atomic_ref keeps the data race defined; relaxed order
  // compiles to a plain store.
  std::vector<vid_t>& cmatch =
      ws.vec<vid_t>("os.cmatch", static_cast<std::size_t>(g.num_cols()), kNil);
#pragma omp parallel for schedule(static)
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    const vid_t j = rchoice[static_cast<std::size_t>(i)];
    if (j == kNil) continue;
    std::atomic_ref<vid_t>(cmatch[static_cast<std::size_t>(j)])
        .store(i, std::memory_order_relaxed);
  }

  matching_from_col_view(g.num_rows(), cmatch, out);
}

void one_sided_match_ws(const BipartiteGraph& g, int scaling_iterations,
                        std::uint64_t seed, Workspace& ws, Matching& out) {
  ScalingResult& scaling = ws.obj<ScalingResult>("os.scaling");
  scale_sinkhorn_knopp_or_identity_ws(g, scaling_iterations, ws, scaling);
  one_sided_from_scaling_ws(g, scaling, seed, ws, out);
}

} // namespace bmh
