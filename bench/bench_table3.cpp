/// \file bench_table3.cpp
/// \brief Reproduces paper Table 3: instance properties, scaling error
/// after {1,5,10} Sinkhorn-Knopp iterations, and *sequential* execution
/// times of ScaleSK (one iteration), OneSidedMatch, KarpSipserMT, and
/// TwoSidedMatch on the 12-instance suite.
///
/// The UFL matrices are replaced by structural stand-ins (see graph/generators_suite.hpp)
/// at ~1/10 the paper's sizes by default; absolute times therefore differ
/// from the paper's Sandy Bridge numbers, but the orderings (road networks
/// dominate scaling cost; TwoSided ~ 2-3x OneSided; sprank/n < 1 exactly
/// for the road instances) are the reproduction target.

#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace bmh;
  bench::banner("Table 3 — suite properties and sequential times");

  const double scale = bench::suite_scale();
  const int runs = bench::repeats(5);

  Table table({"name", "n", "edges", "avg deg", "sprank/n", "err it1", "err it5",
               "err it10", "ScaleSK s", "OneSided s", "KSipserMT s", "TwoSided s"});

  ThreadCountGuard sequential(1);  // Table 3 reports single-thread times

  for (const auto& name : suite_names()) {
    const SuiteInstance inst = make_suite_instance(name, scale, 42);
    const BipartiteGraph& g = inst.graph;

    const double rank_ratio =
        static_cast<double>(sprank(g)) / static_cast<double>(g.num_rows());
    const double err1 = scale_sinkhorn_knopp(g, {1, 0.0}).error;
    const double err5 = scale_sinkhorn_knopp(g, {5, 0.0}).error;
    const ScalingResult s10 = scale_sinkhorn_knopp(g, {10, 0.0});

    // Sequential timings, geometric mean with one warmup (paper drops the
    // first runs of 20; we use a lighter protocol scaled by BMH_REPEATS).
    const double t_scale =
        bench::time_geomean([&](int) { (void)scale_sinkhorn_knopp(g, {1, 0.0}); }, runs, 1);
    const ScalingResult s1 = scale_sinkhorn_knopp(g, {1, 0.0});
    const double t_one = bench::time_geomean(
        [&](int r) { (void)one_sided_from_scaling(g, s1, static_cast<std::uint64_t>(r)); },
        runs, 1);
    const TwoSidedChoices choices = sample_two_sided_choices(g, s1, 7);
    const std::vector<vid_t> unified =
        unify_choices(g.num_rows(), g.num_cols(), choices.rchoice, choices.cchoice);
    const double t_ksmt = bench::time_geomean(
        [&](int) { (void)karp_sipser_mt(g.num_rows(), g.num_cols(), unified); }, runs, 1);
    const double t_two = bench::time_geomean(
        [&](int r) { (void)two_sided_from_scaling(g, s1, static_cast<std::uint64_t>(r)); },
        runs, 1);

    table.row()
        .add(name)
        .add(format_count(g.num_rows()))
        .add(format_count(g.num_edges()))
        .add(average_degree(g), 1)
        .add(rank_ratio, 3)
        .add(err1, 2)
        .add(err5, 2)
        .add(s10.error, 2)
        .add(t_scale, 3)
        .add(t_one, 3)
        .add(t_ksmt, 3)
        .add(t_two, 3);
  }

  table.print(std::cout, "suite at scale " + format_double(scale, 2) +
                             " (paper sizes ~10x larger); single-thread times");
  std::cout << "\npaper shape: road instances have sprank/n in {0.95, 0.99} and the\n"
               "largest scaling errors; OneSided time ~ ScaleSK + sampling;\n"
               "TwoSided ~ ScaleSK + 2x sampling + KarpSipserMT.\n";
  return 0;
}
