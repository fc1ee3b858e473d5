#include "engine/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "analysis/dulmage_mendelsohn.hpp"
#include "analysis/koenig.hpp"
#include "analysis/quality.hpp"
#include "graph/transform.hpp"
#include "matching/push_relabel.hpp"
#include "obs/trace.hpp"
#include "undirected/graph.hpp"
#include "undirected/matching.hpp"
#include "scaling/ruiz.hpp"
#include "scaling/sinkhorn_knopp.hpp"
#include "util/failpoint.hpp"
#include "util/threading.hpp"
#include "util/timer.hpp"

namespace bmh {

std::int64_t steady_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ScalingMethod parse_scaling_method(const std::string& name) {
  if (name == "none") return ScalingMethod::kNone;
  if (name == "sinkhorn_knopp" || name == "sk") return ScalingMethod::kSinkhornKnopp;
  if (name == "ruiz") return ScalingMethod::kRuiz;
  throw std::invalid_argument("unknown scaling method '" + name +
                              "' (none|sinkhorn_knopp|ruiz)");
}

const char* to_string(ScalingMethod method) noexcept {
  switch (method) {
    case ScalingMethod::kNone: return "none";
    case ScalingMethod::kSinkhornKnopp: return "sinkhorn_knopp";
    case ScalingMethod::kRuiz: return "ruiz";
  }
  return "?";
}

namespace {

/// The analysis types of kind=analyze, sorted: the one list both the check
/// in run_analyze_pipeline_ws and analysis_type_names() read.
constexpr std::string_view kAnalysisTypes[] = {"dm", "koenig", "sprank"};

/// Throws std::invalid_argument naming `type` and listing the known types
/// unless `type` is one of kAnalysisTypes.
void check_analysis_type(const std::string& type) {
  if (std::ranges::find(kAnalysisTypes, std::string_view(type)) !=
      std::ranges::end(kAnalysisTypes))
    return;
  std::string known;
  for (const std::string_view t : kAnalysisTypes) {
    if (!known.empty()) known += '|';
    known += t;
  }
  throw std::invalid_argument("unknown analysis type '" + type + "' (" + known + ")");
}

/// Runs `fn`, recording its wall-clock under `stage` in `result` — and as a
/// trace span into the worker's journal when one is bound (the stage names
/// are string literals at every call site, as spans require). Stage entry
/// is the failure boundary: the deadline is checked here (a running stage
/// is never interrupted) and the `pipeline.stage` failpoint fires here.
template <typename Fn>
void timed_stage(PipelineResult& result, const PipelineConfig& config,
                 const char* stage, Fn&& fn) {
  BMH_FAILPOINT("pipeline.stage");
  if (config.deadline_ns != 0 && steady_now_ns() >= config.deadline_ns)
    throw JobTimeoutError(std::string("deadline exceeded before stage '") + stage +
                          "'");
  obs::ScopedSpan span(stage);
  Timer timer;
  fn();
  const double seconds = timer.seconds();
  result.stages.push_back({stage, seconds});
  result.total_seconds += seconds;
}

/// The engine's one exact solve: completes `m`, a valid matching of `g`,
/// to a maximum one by push-relabel and remembers its cardinality as g's
/// sprank, so whichever job reaches a resident graph first pays the
/// graph's only exact solve.
void complete_to_maximum(const BipartiteGraph& g, Matching& m, Workspace& ws) {
  push_relabel_augment_ws(g, m, ws);
  g.remember_sprank(m.cardinality());
}

/// A maximum matching of `g` from scratch into a workspace-leased matching,
/// counted as a sprank solve.
const Matching& solve_maximum(const BipartiteGraph& g, Workspace& ws, PipelineResult& out) {
  Matching& m = ws.obj<Matching>("pipeline.maximum");
  m.reset(g.num_rows(), g.num_cols());
  complete_to_maximum(g, m, ws);
  out.sprank_source = SprankSource::kSolved;
  return m;
}

/// sprank(g), solved at most once per graph: the memo on `g` answers when
/// set, otherwise the exact solve runs. Two workers that reach a cold
/// shared graph together may both solve; they store the same value.
vid_t remembered_sprank(const BipartiteGraph& g, Workspace& ws, PipelineResult& out) {
  if (const std::optional<vid_t> known = g.known_sprank()) {
    out.sprank_source = SprankSource::kMemo;
    return *known;
  }
  return solve_maximum(g, ws, out).cardinality();
}

void run_stages_ws(const BipartiteGraph& g, const PipelineConfig& config,
                   const MatchingAlgorithm& algorithm, Workspace& ws,
                   PipelineResult& out) {
  out.reset();  // `out` may carry a previous job's results

  // The match stage reads the graph's remembered scaling in place on a
  // hit, else this worker's `computed` (or the entry it was just moved into).
  ScalingResult& computed = ws.obj<ScalingResult>("pipeline.scaling");
  const ScalingResult* scaling = &computed;
  const bool scale = algorithm.uses_scaling() &&
                     config.scaling != ScalingMethod::kNone &&
                     config.scaling_iterations > 0;
  timed_stage(out, config, "scale", [&] {
    if (scale) {
      const ScalingKey key{static_cast<int>(config.scaling), config.scaling_iterations,
                           config.scaling_tolerance};
      if (const ScalingResult* known = g.known_scaling(key)) {
        scaling = known;
        out.scaling_source = ScalingSource::kMemo;
        return;
      }
      const ScalingOptions opts{config.scaling_iterations, config.scaling_tolerance};
      if (config.scaling == ScalingMethod::kRuiz)
        scale_ruiz_ws(g, opts, ws, computed);
      else
        scale_sinkhorn_knopp_ws(g, opts, ws, computed);
      out.scaling_source = ScalingSource::kSolved;
      scaling = &g.offer_scaling(key, computed);
    } else if (algorithm.uses_scaling()) {
      // The identity multipliers only feed the samplers; the error field is
      // never read on this branch, so skip its O(nnz) computation.
      identity_scaling_ws(g, ws, computed, /*compute_error=*/false);
    }
    // An algorithm that ignores scaling gets no multipliers at all.
  });
  if (scale) {
    out.scaling_iterations = scaling->iterations;
    out.scaling_error = scaling->error;
  }

  timed_stage(out, config, "match",
              [&] { algorithm.run_ws(g, *scaling, config.options, ws, out.matching); });
  out.heuristic_cardinality = out.matching.cardinality();
  out.exact = algorithm.is_exact();

  if (config.augment && !out.exact) {
    timed_stage(out, config, "augment", [&] {
      // Validate before handing the matching to the in-place augmenter: a
      // kernel defect that yields an invalid matching must fail the job
      // cleanly, not corrupt the augmenter's state.
      if (!is_valid_matching(g, out.matching))
        throw std::invalid_argument("pipeline augment: matching produced by '" +
                                    config.algorithm + "' is invalid");
      complete_to_maximum(g, out.matching, ws);
      out.exact = true;
    });
  }
  out.cardinality = out.matching.cardinality();

  timed_stage(out, config, "analyze", [&] {
    out.valid = is_valid_matching(g, out.matching);
    // An exact row's |M| is g's sprank too (augment remembered its own).
    if (algorithm.is_exact() && out.valid) g.remember_sprank(out.cardinality);
    if (config.compute_quality) {
      // An exact pipeline already knows the optimum: |M| = sprank.
      out.sprank = out.exact ? out.cardinality : remembered_sprank(g, ws, out);
      out.quality = matching_quality(out.matching, out.sprank);
    }
  });
}

} // namespace

PipelineResult run_pipeline(const BipartiteGraph& g, const PipelineConfig& config) {
  PipelineResult result;
  run_pipeline_ws(g, config, Workspace::for_this_thread(), result);
  return result;
}

void run_pipeline_ws(const BipartiteGraph& g, const PipelineConfig& config,
                     Workspace& ws, PipelineResult& out) {
  // Resolve the algorithm first: an unknown name must fail before any work.
  const MatchingAlgorithm& algorithm = find_algorithm(config.algorithm);
  // One body for both thread modes: the guard only engages for an explicit
  // budget (<= 0 keeps the ambient OpenMP count untouched).
  std::optional<ThreadCountGuard> guard;
  if (config.options.threads > 0) guard.emplace(config.options.threads);
  run_stages_ws(g, config, algorithm, ws, out);
}

void run_undirected_pipeline_ws(const BipartiteGraph& g, const PipelineConfig& config,
                                Workspace& ws, PipelineResult& out) {
  // Resolve first: an unknown name must fail before any work.
  const UndirectedAlgorithm& algorithm = find_undirected_algorithm(config.algorithm);
  std::optional<ThreadCountGuard> guard;
  if (config.options.threads > 0) guard.emplace(config.options.threads);
  out.reset();

  UndirectedGraph& ug = ws.obj<UndirectedGraph>("und.graph");
  timed_stage(out, config, "convert", [&] {
    const bool symmetric = g.square() && is_pattern_symmetric(g);
    if (symmetric)
      ug.assign_symmetric_view(g);
    else
      ug.assign_bipartite_union(g);
    out.extras.symmetric_view = symmetric;
    out.extras.vertices = ug.num_vertices();
    out.extras.undirected_edges = ug.num_edges();
  });

  UndirectedMatching& m = ws.obj<UndirectedMatching>("und.matching");
  timed_stage(out, config, "match", [&] {
    UndirectedRunInfo info;
    const int iterations =
        config.scaling == ScalingMethod::kNone ? 0 : config.scaling_iterations;
    algorithm.run(ug, iterations, config.options, ws, m, info);
    out.scaling_iterations = info.scaling_iterations;
    out.scaling_error = info.scaling_error;
  });
  out.cardinality = m.cardinality();
  out.heuristic_cardinality = out.cardinality;

  timed_stage(out, config, "analyze", [&] { out.valid = is_valid_matching(ug, m); });
}

void run_analyze_pipeline_ws(const BipartiteGraph& g, const PipelineConfig& config,
                             Workspace& ws, PipelineResult& out) {
  const std::string& type = config.algorithm;
  check_analysis_type(type);
  std::optional<ThreadCountGuard> guard;
  if (config.options.threads > 0) guard.emplace(config.options.threads);
  out.reset();

  timed_stage(out, config, "analyze", [&] {
    if (type == "sprank") {
      out.sprank = remembered_sprank(g, ws, out);
      out.exact = true;
      out.valid = true;
    } else {
      // dm and koenig share one solve; neither result depends on which
      // maximum matching it is.
      const Matching& m = solve_maximum(g, ws, out);
      out.sprank = m.cardinality();
      out.cardinality = out.sprank;
      out.heuristic_cardinality = out.sprank;
      out.exact = true;
      if (type == "dm") {
        const DmDecomposition dm = dulmage_mendelsohn(g, m);
        out.extras.h_rows = dm.h_rows;
        out.extras.h_cols = dm.h_cols;
        out.extras.s_size = dm.s_size;
        out.extras.v_rows = dm.v_rows;
        out.extras.v_cols = dm.v_cols;
        out.extras.fine_blocks = dm.num_blocks;
        out.extras.total_support = dm.total_support;
        out.extras.fully_indecomposable = dm.fully_indecomposable;
        out.valid = true;
      } else {  // koenig
        const VertexCover cover = koenig_cover(g, m);
        out.extras.cover_size = cover.size();
        out.extras.cover_valid = is_vertex_cover(g, cover);
        out.extras.maximum =
            out.extras.cover_valid && out.extras.cover_size == out.cardinality;
        out.valid = is_valid_matching(g, m);
      }
    }
  });
}

std::vector<std::string> analysis_type_names() {
  return {std::begin(kAnalysisTypes), std::end(kAnalysisTypes)};
}

} // namespace bmh
