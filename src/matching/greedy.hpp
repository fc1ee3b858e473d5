#pragma once
/// \file greedy.hpp
/// \brief The "cheap matching" baselines reviewed in paper §2.1.
///
/// Three classic linear-time heuristics, all with worst-case guarantee 1/2
/// (the first two are the literature's two "cheap matching" variants; the
/// third is the common static-mindegree jump-start). They serve as
/// baselines against which OneSidedMatch's 0.632 and TwoSidedMatch's 0.866
/// are compared.

#include <cstdint>

#include "core/workspace.hpp"
#include "graph/bipartite_graph.hpp"
#include "matching/matching.hpp"

namespace bmh {

// Each heuristic leases its scratch from `ws` and writes its result into
// `out` (capacity reused); warm calls are allocation-free.

/// Cheap variant 1: visit the edges in uniformly random order; match the two
/// endpoints whenever both are still free. Guarantee 1/2 (Dyer–Frieze).
void match_random_edges_ws(const BipartiteGraph& g, std::uint64_t seed, Workspace& ws,
                           Matching& out);

/// Cheap variant 2: repeatedly pick a random free vertex and match it with a
/// random free neighbour. Guarantee 1/2 + epsilon (Aronson et al.;
/// Poloczek–Szegedy).
void match_random_vertices_ws(const BipartiteGraph& g, std::uint64_t seed, Workspace& ws,
                              Matching& out);

/// Static mindegree: process rows by nondecreasing degree, matching each to
/// its lowest-degree free neighbour. Deterministic.
void match_min_degree_ws(const BipartiteGraph& g, Workspace& ws, Matching& out);

} // namespace bmh
