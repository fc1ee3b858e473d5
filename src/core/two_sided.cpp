#include "core/two_sided.hpp"

#include "core/choice.hpp"
#include "core/workspace.hpp"
#include "scaling/sinkhorn_knopp.hpp"

namespace bmh {

void sample_two_sided_choices_ws(const BipartiteGraph& g, const ScalingResult& scaling,
                                 std::uint64_t seed, TwoSidedChoices& out) {
  sample_row_choices(g, scaling.dc, seed, out.rchoice);
  sample_col_choices(g, scaling.dr, seed + 0x9e3779b97f4a7c15ULL, out.cchoice);
}

void two_sided_from_scaling_ws(const BipartiteGraph& g, const ScalingResult& scaling,
                               std::uint64_t seed, KarpSipserMTStats* stats,
                               Workspace& ws, Matching& out) {
  TwoSidedChoices& choices = ws.obj<TwoSidedChoices>("ts.choices");
  sample_two_sided_choices_ws(g, scaling, seed, choices);
  // Sized here, so unify_choices's resize is a no-op on a warm workspace.
  std::vector<vid_t>& unified =
      ws.vec<vid_t>("ts.unified", static_cast<std::size_t>(g.num_rows()) +
                                      static_cast<std::size_t>(g.num_cols()));
  unify_choices(g.num_rows(), g.num_cols(), choices.rchoice, choices.cchoice, unified);
  karp_sipser_mt_ws(g.num_rows(), g.num_cols(), unified, stats, ws, out);
}

void two_sided_match_ws(const BipartiteGraph& g, int scaling_iterations,
                        std::uint64_t seed, KarpSipserMTStats* stats, Workspace& ws,
                        Matching& out) {
  ScalingResult& scaling = ws.obj<ScalingResult>("ts.scaling");
  scale_sinkhorn_knopp_or_identity_ws(g, scaling_iterations, ws, scaling);
  two_sided_from_scaling_ws(g, scaling, seed, stats, ws, out);
}

} // namespace bmh
