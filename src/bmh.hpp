#pragma once
/// \file bmh.hpp
/// \brief Umbrella header: the full public API of the bmh library.
///
/// bmh reproduces Dufossé, Kaya & Uçar, "Bipartite matching heuristics with
/// quality guarantees on shared memory parallel computers" (IPDPS 2014 /
/// Inria RR-8386). The two headline entry points are:
///
///   bmh::one_sided_match(graph, scaling_iterations, seed)   // >= 0.632
///   bmh::two_sided_match(graph, scaling_iterations, seed)   // ~= 0.866
///
/// See README.md for a quickstart and the system inventory.

// Utilities
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/failpoint.hpp"
#include "util/mmap_file.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/threading.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

// Graph substrate
#include "graph/bipartite_graph.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/generators_suite.hpp"
#include "graph/mmio.hpp"
#include "graph/serialize.hpp"
#include "graph/stats.hpp"
#include "graph/transform.hpp"

// Doubly stochastic scaling
#include "scaling/ruiz.hpp"
#include "scaling/scaling.hpp"
#include "scaling/sinkhorn_knopp.hpp"

// Baseline and exact matchers
#include "matching/greedy.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/karp_sipser.hpp"
#include "matching/matching.hpp"
#include "matching/mc21.hpp"
#include "matching/push_relabel.hpp"

// The paper's contribution
#include "core/choice.hpp"
#include "core/k_out.hpp"
#include "core/karp_sipser_mt.hpp"
#include "core/one_sided.hpp"
#include "core/two_sided.hpp"

// Matching engine (registry, pipelines, the serving Engine)
#include "engine/algorithm.hpp"
#include "engine/engine_api.hpp"
#include "engine/graph_cache.hpp"
#include "engine/graph_store.hpp"
#include "engine/job.hpp"
#include "engine/json.hpp"
#include "engine/pipeline.hpp"
#include "engine/registry.hpp"

// Observability (metrics, tracing, exporters)
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Undirected extension (paper §5 future work)
#include "undirected/graph.hpp"
#include "undirected/matching.hpp"

// Analysis
#include "analysis/dulmage_mendelsohn.hpp"
#include "analysis/koenig.hpp"
#include "analysis/one_out_structure.hpp"
#include "analysis/quality.hpp"
