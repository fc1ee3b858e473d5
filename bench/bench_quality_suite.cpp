/// \file bench_quality_suite.cpp
/// \brief Reproduces paper §4.1.1: the quality study over square, fully
/// indecomposable matrices.
///
/// The paper checked all 743 square fully indecomposable UFL matrices with
/// >= 1000 rows and found the 0.632 / 0.866 guarantees surpassed with 10
/// scaling iterations on all but 37 instances, which 10 further iterations
/// fixed. We substitute a generated population of fully indecomposable
/// matrices (planted-perfect + extra entries, cycles, meshes with wrap,
/// dense blocks, power-law) and report, per iteration budget, how many
/// instances fall below each guarantee.

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace bmh;
  bench::banner("§4.1.1 — guarantee attainment over a fully indecomposable population");

  const auto base_n = static_cast<vid_t>(scaled(20000, 2048));
  const int runs = bench::repeats(3);

  // Build the population: several families x seeds. All are square with a
  // perfect matching; most are fully indecomposable by construction (extra
  // random entries on top of a planted permutation glue the SCCs together).
  struct Member {
    std::string family;
    BipartiteGraph g;
  };
  std::vector<Member> population;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    population.push_back({"planted+2", make_planted_perfect(base_n, 2, seed)});
    population.push_back({"planted+6", make_planted_perfect(base_n, 6, seed + 100)});
    population.push_back(
        {"powerlaw", make_power_law(base_n, 12.0, 1.7, seed + 200)});
    population.push_back({"regular3", make_row_regular(base_n / 4, 3, seed + 300)});
  }
  population.push_back({"cycle", make_cycle(base_n)});
  population.push_back({"full", make_full(std::min<vid_t>(base_n, 2048))});
  for (const vid_t k : {2, 8, 32})
    population.push_back({"adversarial", make_ks_adversarial(base_n / 4, k)});

  std::cout << "population: " << population.size() << " matrices, n ~ " << base_n
            << "\n\n";

  Table table({"iters", "one<0.632", "two<0.866", "min one", "min two"});
  const MatchingAlgorithm& one_sided = find_algorithm("one_sided");
  const MatchingAlgorithm& two_sided = find_algorithm("two_sided");
  Workspace ws;
  Matching m;
  for (const int iters : {0, 5, 10, 20}) {
    int one_below = 0, two_below = 0;
    double min_one = 1.0, min_two = 1.0;
    for (const auto& member : population) {
      const BipartiteGraph& g = member.g;
      const ScalingResult s =
          iters > 0 ? scale_sinkhorn_knopp(g, {iters, 0.0}) : identity_scaling(g);
      vid_t one_worst = g.num_rows(), two_worst = g.num_rows();
      for (int r = 0; r < runs; ++r) {
        // Both heuristics come from the engine's algorithm table; the
        // scaling is computed once above and shared across algorithms and
        // repetitions.
        AlgorithmOptions options;
        options.seed = static_cast<std::uint64_t>(r);
        one_sided.run_ws(g, s, options, ws, m);
        one_worst = std::min(one_worst, m.cardinality());
        two_sided.run_ws(g, s, options, ws, m);
        two_worst = std::min(two_worst, m.cardinality());
      }
      // All population members have a perfect matching: sprank = n.
      const double q_one =
          static_cast<double>(one_worst) / static_cast<double>(g.num_rows());
      const double q_two =
          static_cast<double>(two_worst) / static_cast<double>(g.num_rows());
      if (q_one < kOneSidedGuarantee) ++one_below;
      if (q_two < kTwoSidedGuarantee) ++two_below;
      min_one = std::min(min_one, q_one);
      min_two = std::min(min_two, q_two);
    }
    table.row()
        .add(iters)
        .add(std::int64_t{one_below})
        .add(std::int64_t{two_below})
        .add(min_one, 3)
        .add(min_two, 3);
  }
  table.print(std::cout, "instances below guarantee vs scaling iterations");
  std::cout << "\npaper shape: at 10 iterations (nearly) no instance is below its\n"
               "guarantee; stragglers are fixed by 10 more iterations.\n";
  return 0;
}
