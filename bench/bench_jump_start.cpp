/// \file bench_jump_start.cpp
/// \brief Quantifies the paper's motivating claim (§1): cheap quality-
/// guaranteed heuristics are good jump-starts for exact matching codes.
///
/// Note: the cold MC21 row is the known pathological case — augmenting DFS
/// from scratch on sparse random graphs (this very slowness is the paper's
/// motivation for quality-guaranteed jump-starts), so the instance is kept
/// moderate by default.
///
/// For each exact solver (Hopcroft-Karp, MC21, push-relabel) and each
/// initialization (none, greedy, Karp-Sipser, OneSided, TwoSided), measure
/// init quality and the end-to-end time to the exact optimum.

#include <functional>
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace bmh;
  bench::banner("Jump-start study — heuristics as exact-solver initializers");

  const auto n = static_cast<vid_t>(scaled(200000, 8192));
  const int runs = bench::repeats(2);
  const BipartiteGraph g = make_erdos_renyi(n, n, 5LL * n, 3);
  const vid_t optimum = sprank(g);
  std::cout << "instance: ER n=" << n << ", " << format_count(g.num_edges())
            << " edges, sprank " << optimum << "\n\n";

  // Initializers are engine pipelines named by their algorithm
  // (empty name = cold start); the pipeline owns the scale+match sequencing
  // the seed code used to hand-wire here.
  struct Init {
    const char* label;
    const char* algorithm;
  };
  const std::vector<Init> inits = {
      {"cold", ""},
      {"greedy-vertex", "greedy"},
      {"karp-sipser", "karp_sipser"},
      {"one-sided(5)", "one_sided"},
      {"two-sided(5)", "two_sided"},
  };
  struct InitRun {
    Matching matching;
    double seconds = 0.0;
  };
  const auto make_init = [&](const Init& init, std::uint64_t seed) -> InitRun {
    if (init.algorithm[0] == '\0') return {Matching(g.num_rows(), g.num_cols()), 0.0};
    PipelineConfig config;
    config.algorithm = init.algorithm;
    config.options.seed = seed;
    config.scaling_iterations = 5;
    config.compute_quality = false;  // the bench reuses the shared sprank
    PipelineResult r = run_pipeline(g, config);
    // The init cost is scale+match only; the pipeline's validity scan is
    // measurement overhead, not part of what the paper's jump-start pays.
    double seconds = 0.0;
    for (const StageStats& s : r.stages)
      if (s.stage == "scale" || s.stage == "match") seconds += s.seconds;
    return {std::move(r.matching), seconds};
  };
  struct Solver {
    const char* name;
    std::function<Matching(const Matching&)> solve;
  };
  const std::vector<Solver> solvers = {
      {"hopcroft-karp", [&](const Matching& w) { return hopcroft_karp(g, &w); }},
      {"mc21", [&](const Matching& w) { return mc21(g, &w); }},
      {"push-relabel", [&](const Matching& w) { return push_relabel(g, &w); }},
  };

  Table table({"init", "init quality", "init s", "HK s", "MC21 s", "PR s"});
  for (const auto& init : inits) {
    const InitRun run = make_init(init, 1);
    const Matching& warm = run.matching;
    table.row()
        .add(init.label)
        .add(matching_quality(warm, optimum), 4)
        .add(run.seconds, 3);
    for (const auto& solver : solvers) {
      const double t = bench::time_geomean(
          [&](int) {
            const Matching exact = solver.solve(warm);
            if (exact.cardinality() != optimum) {
              std::cerr << "BUG: " << solver.name << " not optimal from " << init.label
                        << '\n';
              std::exit(1);
            }
          },
          runs, 0);
      table.add(t, 3);
    }
  }
  table.print(std::cout, "solve-to-optimal time per initialization (seconds)");
  std::cout << "\nexpected shape: better init quality shortens every solver's\n"
               "solve time; two-sided(5) leaves the least augmentation work.\n";
  return 0;
}
