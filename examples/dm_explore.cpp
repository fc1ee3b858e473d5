/// \file dm_explore.cpp
/// \brief Dulmage-Mendelsohn exploration (paper §3.3): decompose a matrix
/// without a perfect matching and watch Sinkhorn-Knopp suppress the
/// coupling entries that no maximum matching can use.
///
/// Usage: dm_explore [--mtx file.mtx] (default: a generated DM-structured
/// instance with planted H/S/V blocks)

#include <algorithm>
#include <iostream>

#include "bmh.hpp"

int main(int argc, char** argv) {
  const bmh::CliArgs args(argc, argv);

  bmh::BipartiteGraph graph;
  if (args.has("mtx")) {
    const std::string path = args.get("mtx", "");
    std::cout << "loading " << path << "\n";
    graph = bmh::read_matrix_market_file(path);
  } else {
    graph = bmh::make_dm_structured(/*h_rows=*/200, /*h_cols=*/300, /*s_n=*/400,
                                    /*v_rows=*/350, /*v_cols=*/250,
                                    /*coupling_per_row=*/3, /*seed=*/7);
    std::cout << "generated DM-structured instance (use --mtx to load a file)\n";
  }

  const bmh::DmDecomposition dm =
      bmh::dulmage_mendelsohn(graph, bmh::push_relabel(graph));
  std::cout << "matrix: " << graph.num_rows() << " x " << graph.num_cols() << ", "
            << bmh::format_count(graph.num_edges()) << " entries, sprank " << dm.sprank
            << "\n\n";

  bmh::Table blocks({"part", "rows", "cols", "meaning"});
  blocks.row().add("H").add(std::int64_t{dm.h_rows}).add(std::int64_t{dm.h_cols})
      .add("underdetermined: row-perfect matching");
  blocks.row().add("S").add(std::int64_t{dm.s_size}).add(std::int64_t{dm.s_size})
      .add("square: perfect matching");
  blocks.row().add("V").add(std::int64_t{dm.v_rows}).add(std::int64_t{dm.v_cols})
      .add("overdetermined: column-perfect matching");
  blocks.print(std::cout, "coarse Dulmage-Mendelsohn decomposition");

  std::cout << "\nsprank check: h_rows + s + v_cols = "
            << dm.h_rows + dm.s_size + dm.v_cols << " = sprank\n";
  std::cout << "fine blocks of S: " << dm.num_blocks
            << ", total support: " << (dm.total_support ? "yes" : "no")
            << ", fully indecomposable: " << (dm.fully_indecomposable ? "yes" : "no")
            << "\n\n";

  // Track the maximum scaled value of a coupling ("*") entry vs iterations.
  bmh::Table decay({"iterations", "max * entry", "scaling error"});
  for (const int iters : {1, 5, 10, 50, 100}) {
    const bmh::ScalingResult s = bmh::scale_sinkhorn_knopp(graph, {iters, 0.0});
    double max_star = 0.0;
    for (bmh::vid_t i = 0; i < graph.num_rows(); ++i)
      for (const bmh::vid_t j : graph.row_neighbors(i))
        if (dm.row_part[static_cast<std::size_t>(i)] !=
            dm.col_part[static_cast<std::size_t>(j)])
          max_star = std::max(max_star, s.entry(i, j));
    decay.row().add(iters).add(max_star, 6).add(s.error, 6);
  }
  decay.print(std::cout,
              "scaling suppresses entries outside all maximum matchings (§3.3)");

  // Consequence for the heuristics: quality on this deficient matrix.
  const bmh::Matching two = bmh::two_sided_match(graph, 10, 3);
  std::cout << "\nTwoSidedMatch on this deficient matrix: quality "
            << bmh::matching_quality(two, dm.sprank) << " (conjecture: "
            << bmh::kTwoSidedGuarantee << ")\n";
  return 0;
}
