#pragma once
/// \file pipeline.hpp
/// \brief Composable matching pipelines: scaling -> heuristic -> exact
/// augmentation, with per-stage timing and quality accounting.
///
/// A pipeline is the unit every entry point (benches, examples, the batch
/// runner) executes: it owns the stage sequencing that the seed code
/// hand-wired at each call site. Stages:
///
///   scale    optional Sinkhorn-Knopp or Ruiz scaling, remembered on the
///            graph from a (method, iterations, tolerance) key's second
///            use on (BipartiteGraph::offer_scaling); identity multipliers
///            when the job asks for no scaling, nothing at all when the
///            algorithm ignores scaling
///   match    a built-in heuristic or exact algorithm (registry.hpp)
///   augment  optional push-relabel completion to the maximum (the paper's
///            jump-start application: the heuristic initializes the exact
///            solver); its cardinality is remembered as the graph's sprank
///   analyze  validity check and |M| / sprank quality (sprank reuses the
///            known optimum when the pipeline already ended exact, else the
///            graph's remembered sprank). An exact pipeline remembers its
///            |M| as the graph's sprank, so whichever job reaches a resident
///            graph first pays its only exact solve

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/workspace.hpp"
#include "engine/algorithm.hpp"
#include "engine/registry.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bmh {

/// Which scaler the pipeline's scale stage runs.
enum class ScalingMethod {
  kNone,           ///< identity multipliers (uniform sampling)
  kSinkhornKnopp,  ///< paper Algorithm 1
  kRuiz,           ///< Ruiz equilibration (§2.2 alternative)
};

/// Parses "none" | "sinkhorn_knopp" (alias "sk") | "ruiz".
/// Throws std::invalid_argument otherwise.
[[nodiscard]] ScalingMethod parse_scaling_method(const std::string& name);

/// Canonical name of a ScalingMethod ("none"/"sinkhorn_knopp"/"ruiz").
[[nodiscard]] const char* to_string(ScalingMethod method) noexcept;

/// A job overran its `timeout_ms=` budget. Thrown at stage boundaries (a
/// running stage is never interrupted — the check costs one clock read per
/// stage and keeps every kernel oblivious to deadlines); the engine turns
/// it into an `ok=false, error_kind=timeout` record.
class JobTimeoutError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Monotonic now in nanoseconds — the clock deadlines are expressed in
/// (std::chrono::steady_clock, immune to wall-clock steps).
[[nodiscard]] std::int64_t steady_now_ns() noexcept;

struct PipelineConfig {
  std::string algorithm = "two_sided";  ///< table name of the match stage
  AlgorithmOptions options;             ///< seed / threads / k for that stage
  ScalingMethod scaling = ScalingMethod::kSinkhornKnopp;
  int scaling_iterations = 5;
  double scaling_tolerance = 0.0;  ///< 0 = run exactly scaling_iterations
  bool augment = false;    ///< complete to maximum with push-relabel
  bool compute_quality = true;  ///< compute sprank (one exact solve per
                                ///< resident graph, remembered on it)
  /// Absolute steady_now_ns() deadline; 0 = none. Checked on entry to every
  /// stage — JobTimeoutError when already past.
  std::int64_t deadline_ns = 0;
};

/// Wall-clock seconds of one executed stage, in execution order.
struct StageStats {
  std::string stage;     ///< "scale" | "match" | "augment" | "analyze" | "convert"
  double seconds = 0.0;
};

/// Kind-specific scalars the non-match pipelines report alongside the
/// shared PipelineResult fields. Plain values only — resetting is a single
/// aggregate assignment in PipelineResult::reset().
struct AnalysisExtras {
  // kind=undirected-match: how the bipartite input became undirected.
  bool symmetric_view = false;   ///< symmetric view (else bipartite union)
  vid_t vertices = 0;            ///< vertices of the converted graph
  eid_t undirected_edges = 0;    ///< undirected edges (each counted once)
  // analyze type=dm: coarse Dulmage–Mendelsohn block sizes + fine stats.
  vid_t h_rows = 0, h_cols = 0;  ///< horizontal (underdetermined) block
  vid_t s_size = 0;              ///< square block (rows = cols there)
  vid_t v_rows = 0, v_cols = 0;  ///< vertical (overdetermined) block
  vid_t fine_blocks = 0;         ///< fine decomposition block count
  bool total_support = false;
  bool fully_indecomposable = false;
  // analyze type=koenig: the certified minimum vertex cover.
  vid_t cover_size = 0;
  bool cover_valid = false;      ///< covers every edge
  bool maximum = false;          ///< König equality |cover| = |matching| held
};

/// Where PipelineResult::sprank came from — the engine counts solves and
/// memo hits per worker from it.
enum class SprankSource : std::uint8_t {
  kNone,    ///< not computed, or known as |M| of an exact pipeline
  kSolved,  ///< an exact solve ran (and its result was remembered)
  kMemo,    ///< the graph already carried it (BipartiteGraph::known_sprank)
};

/// Where the match stage's scaling came from — the engine counts solves and
/// memo hits per worker from it.
enum class ScalingSource : std::uint8_t {
  kNone,    ///< no scaling ran (identity, or an algorithm that ignores it)
  kSolved,  ///< Sinkhorn–Knopp or Ruiz ran in this job
  kMemo,    ///< the graph already carried it (BipartiteGraph::known_scaling)
};

struct PipelineResult {
  Matching matching;
  vid_t cardinality = 0;            ///< |matching|
  vid_t heuristic_cardinality = 0;  ///< |matching| before augmentation
  bool valid = false;               ///< is_valid_matching held
  bool exact = false;               ///< matching is provably maximum
  vid_t sprank = 0;                 ///< 0 when quality was not computed
  SprankSource sprank_source = SprankSource::kNone;
  double quality = 0.0;             ///< cardinality / sprank (0 likewise)
  int scaling_iterations = 0;       ///< iterations the scale stage ran
  double scaling_error = 0.0;       ///< error after the last iteration
  ScalingSource scaling_source = ScalingSource::kNone;
  AnalysisExtras extras;            ///< kind-specific scalars (non-match kinds)
  std::vector<StageStats> stages;   ///< per-stage wall-clock timings
  double total_seconds = 0.0;       ///< sum over stages

  /// Clears every field while keeping the vectors' capacity — called by
  /// run_pipeline_ws before refilling a reused result, so a new field added
  /// here must be reset here too (never only at the call site).
  void reset() {
    // `matching` is fully overwritten by the match stage; left as-is.
    cardinality = 0;
    heuristic_cardinality = 0;
    valid = false;
    exact = false;
    sprank = 0;
    sprank_source = SprankSource::kNone;
    quality = 0.0;
    scaling_iterations = 0;
    scaling_error = 0.0;
    scaling_source = ScalingSource::kNone;
    extras = AnalysisExtras{};
    stages.clear();
    total_seconds = 0.0;
  }
};

/// Executes the configured pipeline on `g`. Throws std::invalid_argument for
/// an unknown algorithm name (before any work is done). The stage thread
/// budget (config.options.threads) applies to every stage, not just match.
[[nodiscard]] PipelineResult run_pipeline(const BipartiteGraph& g,
                                          const PipelineConfig& config);

/// Workspace-aware pipeline execution — the batch-serving hot path. Every
/// stage's scratch (scaling vectors, choice arrays, solver queues, the
/// sprank matching, k_out's pooled subgraph) is leased from `ws`, the
/// algorithm is a row of the fixed table (looked up without a lock or an
/// allocation), and `out` is fully overwritten with its vectors' capacity
/// reused. A warm worker running same-shaped jobs therefore performs zero
/// heap allocations per call, whichever algorithms it alternates between.
/// Results are identical to run_pipeline() for the same config.
void run_pipeline_ws(const BipartiteGraph& g, const PipelineConfig& config,
                     Workspace& ws, PipelineResult& out);

/// The kind=undirected-match pipeline (§5): convert the bipartite input to
/// an undirected graph (symmetric view when square and pattern-symmetric,
/// bipartite union otherwise — recorded in out.extras), run the undirected
/// algorithm config.algorithm names (find_undirected_algorithm; unknown
/// names throw before any work), and validate. Stages are "convert",
/// "match", "analyze". Same workspace/zero-allocation contract as
/// run_pipeline_ws; `out.matching` is left untouched (the undirected mate
/// array lives in the workspace, its cardinality lands in out.cardinality).
void run_undirected_pipeline_ws(const BipartiteGraph& g, const PipelineConfig& config,
                                Workspace& ws, PipelineResult& out);

/// The kind=analyze pipeline: config.algorithm names the analysis type.
///   dm      coarse + fine Dulmage–Mendelsohn: sprank, block sizes,
///           total-support / full-indecomposability flags (out.extras)
///   koenig  maximum matching + König minimum vertex cover certificate
///   sprank  structural rank alone (the cheapest exact probe; answered by
///           the graph's remembered sprank when it has one)
/// Unknown types throw std::invalid_argument before any work. Runs a single
/// "analyze" stage. dm and koenig always run one push-relabel solve into a
/// workspace-leased matching and compute everything from it (dm with one
/// SCC pass); the solve remembers sprank on `g` and counts as
/// SprankSource::kSolved, so later quality jobs on a resident graph hit
/// the memo. sprank is workspace-leased end to end, while dm/koenig build
/// their decomposition structures afresh per call (they are not on the
/// zero-allocation certified path).
void run_analyze_pipeline_ws(const BipartiteGraph& g, const PipelineConfig& config,
                             Workspace& ws, PipelineResult& out);

/// All analysis type names, sorted — `bmh_engine --list` introspection.
[[nodiscard]] std::vector<std::string> analysis_type_names();

} // namespace bmh
