/// \file quickstart.cpp
/// \brief Minimal end-to-end tour of the bmh public API.
///
/// Builds a random sparse matrix, scales it, runs both heuristics of the
/// paper, and compares their matching quality against the exact optimum.
///
/// Usage: quickstart [--n 100000] [--degree 4] [--iters 5] [--seed 1]

#include <cstdio>
#include <iostream>

#include "bmh.hpp"

int main(int argc, char** argv) {
  const bmh::CliArgs args(argc, argv);
  const auto n = static_cast<bmh::vid_t>(args.get_int("n", 100000));
  const auto degree = static_cast<bmh::eid_t>(args.get_int("degree", 4));
  const int iters = static_cast<int>(args.get_int("iters", 5));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::cout << "bmh quickstart: Erdos-Renyi n=" << n << ", ~" << degree
            << " nonzeros/row, " << iters << " scaling iterations, "
            << bmh::max_threads() << " threads\n\n";

  // 1. Build (or load, see read_matrix_market_file) a bipartite graph.
  const bmh::BipartiteGraph graph = bmh::make_erdos_renyi(n, n, degree * n, seed);
  std::cout << "graph: " << graph.num_rows() << " x " << graph.num_cols() << ", "
            << bmh::format_count(graph.num_edges()) << " edges\n";

  // Every kernel leases its scratch from a Workspace and writes its result
  // into a caller's object; keep one per thread and reuse it, as the
  // engine's workers do.
  bmh::Workspace ws;

  // 2. Ground truth for quality reporting.
  bmh::Timer timer;
  const bmh::vid_t exact = bmh::sprank_ws(graph, ws);
  std::cout << "sprank (push-relabel): " << exact << "  [" << timer.milliseconds()
            << " ms]\n\n";

  // 3. OneSidedMatch — synchronization-free, guarantee 0.632.
  timer.reset();
  bmh::Matching one;
  bmh::one_sided_match_ws(graph, iters, seed, ws, one);
  const double t_one = timer.milliseconds();

  // 4. TwoSidedMatch — Karp-Sipser on the 1-out/1-in subgraph, ~0.866.
  timer.reset();
  bmh::Matching two;
  bmh::two_sided_match_ws(graph, iters, seed, nullptr, ws, two);
  const double t_two = timer.milliseconds();

  bmh::Table table({"heuristic", "cardinality", "quality", "guarantee", "ms"});
  table.row()
      .add("OneSidedMatch")
      .add(std::int64_t{one.cardinality()})
      .add(bmh::matching_quality(one, exact), 4)
      .add(bmh::kOneSidedGuarantee, 3)
      .add(t_one, 1);
  table.row()
      .add("TwoSidedMatch")
      .add(std::int64_t{two.cardinality()})
      .add(bmh::matching_quality(two, exact), 4)
      .add(bmh::kTwoSidedGuarantee, 3)
      .add(t_two, 1);
  table.print(std::cout, "results");

  const bool ok = bmh::is_valid_matching(graph, one) && bmh::is_valid_matching(graph, two);
  std::cout << "\nmatchings valid: " << (ok ? "yes" : "NO") << '\n';
  return ok ? 0 : 1;
}
