#pragma once
/// \file generators.hpp
/// \brief Synthetic bipartite graph generators used throughout the
/// reproduction.
///
/// The paper's experiments draw on three kinds of inputs:
///   1. Matlab `sprand` Erdős–Rényi matrices (Table 2) — `make_erdos_renyi`.
///   2. The adversarial "bad for Karp–Sipser" family of Fig. 2 (Table 1) —
///      `make_ks_adversarial`.
///   3. Real matrices from the UFL collection (Table 3, Figs. 3–5) — here
///      substituted by structural stand-ins built from the generators below
///      (see generators_suite.hpp).
///
/// All generators are deterministic in (parameters, seed) and independent of
/// the OpenMP thread count.

#include <cstdint>

#include "graph/bipartite_graph.hpp"

namespace bmh {

/// Erdős–Rényi / Matlab-sprand analogue: `nnz_target` (row, col) pairs drawn
/// iid uniformly; duplicates collapse, so the realized edge count is slightly
/// below the target, exactly as with sprand's density parameter.
[[nodiscard]] BipartiteGraph make_erdos_renyi(vid_t rows, vid_t cols,
                                              eid_t nnz_target, std::uint64_t seed);

/// The Fig. 2 family: an n×n matrix (n even) that is bad for Karp–Sipser.
/// Let R1/C1 be the first n/2 rows/columns and R2/C2 the rest. The block
/// R1×C1 is completely full and R2×C2 completely empty; the last `k` rows of
/// R1 and the last `k` columns of C1 are full (span the whole matrix); and
/// R1×C2, R2×C1 carry nonzero diagonals which together form a perfect
/// matching. For k <= 1 Karp–Sipser is exact; for k > 1 its Phase 1 never
/// fires and random picks land in the (useless) full block.
[[nodiscard]] BipartiteGraph make_ks_adversarial(vid_t n, vid_t k);

/// Random matrix with a planted perfect matching: a random permutation
/// diagonal plus `extra_per_row` additional uniform entries per row. Always
/// full sprank, and with total support for the permutation entries.
[[nodiscard]] BipartiteGraph make_planted_perfect(vid_t n, vid_t extra_per_row,
                                                  std::uint64_t seed);

/// Fully dense n×n matrix of ones (the analysis case of Conjecture 1; its
/// scaled form is exactly s_ij = 1/n).
[[nodiscard]] BipartiteGraph make_full(vid_t n);

/// Five-point-stencil mesh matrix on an sx×sy grid (n = sx*sy): row v is
/// connected to column v and the columns of the 4-neighbours. Mimics
/// PDE/mesh matrices such as atmosmodl / channel / venturiLevel3.
[[nodiscard]] BipartiteGraph make_mesh(vid_t sx, vid_t sy);

/// Road-network-like matrix: a Hamiltonian cycle (diagonal + superdiagonal)
/// with `shortcut_fraction`·n extra random entries, then `drop_fraction`·n
/// diagonal entries removed to create sprank deficiency like road_usa /
/// europe_osm. Average degree stays near 2.
[[nodiscard]] BipartiteGraph make_road_like(vid_t n, double shortcut_fraction,
                                            double drop_fraction, std::uint64_t seed);

/// Skewed (power-law-ish) degree matrix: row degrees are sampled from a
/// truncated Pareto with shape `alpha` and mean ~`avg_degree`, columns drawn
/// uniformly; a permutation diagonal keeps it full sprank. High row-degree
/// variance, mimicking torso1 / audikw_1 where the paper sees its worst
/// load-balance.
[[nodiscard]] BipartiteGraph make_power_law(vid_t n, double avg_degree, double alpha,
                                            std::uint64_t seed);

/// KKT-like 2×2 block matrix [H Bt; B 0] with H an m×m mesh and B a random
/// p×m constraint block with `d` entries per row, plus diagonals to plant a
/// perfect matching. Mimics kkt_power / nlpkkt240. n = m + p.
[[nodiscard]] BipartiteGraph make_kkt_like(vid_t m, vid_t p, vid_t d, std::uint64_t seed);

/// Random 1-out bipartite graph: every row picks exactly one uniform random
/// column. Used by the Conjecture-1 evidence bench (Karoński–Pittel).
[[nodiscard]] BipartiteGraph make_one_out(vid_t n, std::uint64_t seed);

/// Cycle matrix: row i adjacent to columns i and (i+1) mod n. Every vertex
/// has degree 2 and the whole graph is one simple cycle (for n >= 2).
[[nodiscard]] BipartiteGraph make_cycle(vid_t n);

/// d-regular-ish random matrix: each row gets exactly `d` distinct uniform
/// columns (d <= n). Degrees on the column side are near-Poisson.
[[nodiscard]] BipartiteGraph make_row_regular(vid_t n, vid_t d, std::uint64_t seed);

/// Block-diagonal composition of `blocks` copies of an inner generator call;
/// used to build block matrices with each block fully indecomposable.
[[nodiscard]] BipartiteGraph make_block_diagonal(const std::vector<BipartiteGraph>& blocks);

/// A matrix in explicit Dulmage–Mendelsohn coarse form: an `h_rows`×`h_cols`
/// horizontal block (h_cols > h_rows, row-perfect matching planted), a
/// square block of size `s_n` with total support, and a vertical block
/// (`v_rows` > `v_cols`, column-perfect matching planted). The "*" coupling
/// entries above the diagonal blocks are filled randomly with
/// `coupling_per_row` entries; scaling must drive them to zero (§3.3).
[[nodiscard]] BipartiteGraph make_dm_structured(vid_t h_rows, vid_t h_cols, vid_t s_n,
                                                vid_t v_rows, vid_t v_cols,
                                                vid_t coupling_per_row,
                                                std::uint64_t seed);

} // namespace bmh
