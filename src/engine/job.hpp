#pragma once
/// \file job.hpp
/// \brief Job specifications: a graph source, a job kind, and a pipeline
/// configuration.
///
/// Jobs are described by compact text specs so that batch files, CLI flags
/// and test fixtures share one parser.
///
/// Graph specs (`input=`, dispatched through find_graph_source):
///   gen:NAME:key=val,key=val         generator from graph/generators.hpp
///   suite:NAME[:scale=S]             instance from graph/generators_suite.hpp
///   mtx:PATH                         Matrix Market file, keyed by path text
///   mm:path=PATH                     Matrix Market file, keyed by content hash
///
/// Generator names and parameters (defaults in parentheses):
///   er         n(4096) deg(4)            Erdos-Renyi, nnz = n*deg
///   adversarial n(1024) k(8)             Fig. 2 bad-for-Karp-Sipser family
///   planted    n(4096) extra(3)          planted perfect matching + extras
///   mesh       nx(64) ny(nx)             five-point stencil
///   road       n(4096) shortcut(0.3) drop(0.05)
///   powerlaw   n(4096) avg(8) alpha(1.8)
///   kkt        m(1024) p(256) d(4)
///   cycle      n(4096)
///   regular    n(4096) d(3)              d distinct columns per row
///   full       n(256)
///   one_out    n(4096)
///
/// Job spec lines are whitespace-separated key=value pairs; `input=` is
/// required, everything else has defaults:
///
///   name=j0 kind=match input=gen:er:n=8192,deg=5 algo=two_sided
///   scaling=sinkhorn_knopp iters=5 augment=0 quality=1 threads=0 k=2 seed=7
///
/// The `kind=` axis selects the workload (default `match`, so every legacy
/// spec parses and runs unchanged):
///   match             bipartite matching via the algorithm table
///   undirected-match  undirected matching (§5): the bipartite input is
///                     converted (symmetric view for square pattern-symmetric
///                     graphs, bipartite union otherwise) and `algo=` names
///                     an undirected table entry (default one_out)
///   analyze           structural analysis; `algo=` names the analysis type
///                     (dm | koenig | sprank, default dm)
///
/// A job without `seed=` gets a deterministic per-job seed derived by the
/// engine from (batch seed, job index) — the property that makes
/// batch output reproducible regardless of worker count.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "engine/graph_source.hpp"
#include "engine/pipeline.hpp"
#include "graph/bipartite_graph.hpp"

namespace bmh {

/// Parses `SCHEME:REST`, dispatching REST to the scheme's GraphSource.
/// Duplicate parameter keys are rejected (never silently last-wins). Throws
/// std::invalid_argument on malformed specs, unknown schemes or unknown
/// generator names.
[[nodiscard]] GraphSpec parse_graph_spec(const std::string& spec);

/// Materializes the graph. `seed` feeds the randomized generators (a
/// `seed` parameter inside the spec takes precedence, pinning the instance
/// independently of the job seed). Deterministic in (spec, seed).
[[nodiscard]] BipartiteGraph build_graph(const GraphSpec& spec, std::uint64_t seed);

/// The canonical content address of the graph build_graph(spec, seed) would
/// materialize — the GraphCache key. Two (spec, seed) pairs produce equal
/// keys iff they denote the same instance:
///   * parameters are sorted, defaults resolved and clamps applied, so
///     "gen:er:n=4096", "gen:er:deg=4,n=4096" and "gen:er:n=4096,cols=4096"
///     all canonicalize to "gen:er:cols=4096,deg=4,n=4096#seed=S";
///   * parameters a source never reads (including a `gen:mesh` reached via
///     its `n` shorthand) are dropped;
///   * the effective seed (a `seed=` parameter inside the spec wins over the
///     job seed, the build_graph precedence) is appended as "#seed=S" only
///     for sources whose instance actually depends on it — deterministic
///     generators (mesh, cycle, full, adversarial) and file sources share
///     one key across all seeds. `mtx:` files are keyed by their path
///     *text*; `mm:` files by their *content hash* ("mm:<16 hex>"), stable
///     across processes, copies and renames.
/// Appends to `out` (cleared first; capacity reused, so warm callers build
/// keys allocation-free) and returns the FNV-1a hash of the appended text.
/// Throws like build_graph on unknown generators or invalid parameters (for
/// `mm:` this includes an unreadable file).
std::uint64_t canonical_graph_key(const GraphSpec& spec, std::uint64_t seed,
                                  std::string& out);

/// Convenience form returning a fresh string.
[[nodiscard]] std::string canonical_graph_key(const GraphSpec& spec,
                                              std::uint64_t seed);

/// The workload a job runs; every kind flows through the same pool, cache,
/// store and JSON sink.
enum class JobKind {
  kMatch,            ///< bipartite matching (the original workload)
  kUndirectedMatch,  ///< undirected matching on the converted graph (§5)
  kAnalyze,          ///< structural analysis (dm | koenig | sprank)
};

/// Parses "match" | "undirected-match" | "analyze".
/// Throws std::invalid_argument otherwise.
[[nodiscard]] JobKind parse_job_kind(const std::string& name);

/// Canonical name of a JobKind ("match"/"undirected-match"/"analyze").
[[nodiscard]] const char* to_string(JobKind kind) noexcept;

/// All job kind names, sorted — the `bmh_engine --list` introspection order.
[[nodiscard]] std::vector<std::string> job_kind_names();

/// One batch job: where the graph comes from, the workload kind, and what
/// pipeline to run on it.
struct JobSpec {
  std::string name;                  ///< label carried into the result record
  GraphSpec input;
  JobKind kind = JobKind::kMatch;
  PipelineConfig pipeline;
  std::optional<std::uint64_t> seed; ///< fixed seed; unset = derive per index
  /// Per-job deadline in milliseconds; 0 = none. Measured from the moment a
  /// worker starts executing the job (queue wait excluded) and checked at
  /// the failure boundaries — after graph acquire and on entry to every
  /// pipeline stage; a running stage is never interrupted. Overruns become
  /// an ok=false record with error_kind=timeout. Spec key: `timeout_ms=`.
  std::uint64_t timeout_ms = 0;
};

/// Parses a single spec line (see the format above). Duplicate keys are
/// rejected with the offending key named (`algo`/`algorithm` count as one
/// key). When `kind=` is not `match` and no `algo=` is given, the kind's
/// default algorithm applies (one_out / dm). Throws std::invalid_argument
/// with the offending token on malformed input.
[[nodiscard]] JobSpec parse_job_spec_line(const std::string& line);

/// Parses a spec stream: one job per line, blank lines and `#` comments
/// skipped. Errors are rethrown with the 1-based line number prepended.
/// Jobs without `name=` are labeled "job<index>".
[[nodiscard]] std::vector<JobSpec> parse_job_specs(std::istream& in);

/// File variant of parse_job_specs. Throws std::runtime_error if the file
/// cannot be opened.
[[nodiscard]] std::vector<JobSpec> parse_job_spec_file(const std::string& path);

/// The built-in demonstration batch: 10 jobs mixing generator families and
/// algorithms (used by `bmh_engine --demo` and the determinism tests).
[[nodiscard]] std::vector<JobSpec> demo_batch();

} // namespace bmh
