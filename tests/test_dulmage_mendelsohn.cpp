/// Tests for the Dulmage-Mendelsohn decomposition and the total-support /
/// full-indecomposability flags used throughout the paper's theory.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "analysis/dulmage_mendelsohn.hpp"
#include "analysis/koenig.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/mc21.hpp"
#include "matching/push_relabel.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

/// The decomposition from the tests' reference solver.
DmDecomposition dm_of(const BipartiteGraph& g) {
  return dulmage_mendelsohn(g, hopcroft_karp(g));
}

TEST(Dm, PerfectMatchingGraphIsAllSquare) {
  const BipartiteGraph g = make_planted_perfect(100, 2, 3);
  const DmDecomposition dm = dm_of(g);
  EXPECT_EQ(dm.sprank, 100);
  EXPECT_EQ(dm.h_rows, 0);
  EXPECT_EQ(dm.v_rows, 0);
  EXPECT_EQ(dm.s_size, 100);
}

TEST(Dm, RecoversPlantedBlockStructure) {
  const vid_t hr = 12, hc = 20, s = 30, vr = 25, vc = 15;
  const BipartiteGraph g = make_dm_structured(hr, hc, s, vr, vc, 2, 5);
  const DmDecomposition dm = dm_of(g);
  EXPECT_EQ(dm.h_rows, hr);
  EXPECT_EQ(dm.h_cols, hc);
  EXPECT_EQ(dm.s_size, s);
  EXPECT_EQ(dm.v_rows, vr);
  EXPECT_EQ(dm.v_cols, vc);
  EXPECT_EQ(dm.sprank, hr + s + vc);
}

TEST(Dm, SprankDecomposesAcrossParts) {
  // sprank = h_rows + s_size + v_cols for any matrix.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const BipartiteGraph g = make_erdos_renyi(300, 280, 700, seed);
    const DmDecomposition dm = dm_of(g);
    EXPECT_EQ(dm.sprank, dm.h_rows + dm.s_size + dm.v_cols) << seed;
  }
}

TEST(Dm, HorizontalRowsAllMatchedIntoHorizontalColumns) {
  const BipartiteGraph g = make_erdos_renyi(250, 250, 500, 7);
  const Matching m = hopcroft_karp(g);
  const DmDecomposition dm = dulmage_mendelsohn(g, m);
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    if (dm.row_part[static_cast<std::size_t>(i)] != DmPart::Horizontal) continue;
    const vid_t j = m.row_match[static_cast<std::size_t>(i)];
    ASSERT_NE(j, kNil) << "H row " << i << " must be matched";
    EXPECT_EQ(dm.col_part[static_cast<std::size_t>(j)], DmPart::Horizontal);
  }
}

TEST(Dm, VerticalColumnsAllMatchedIntoVerticalRows) {
  const BipartiteGraph g = make_erdos_renyi(250, 250, 500, 8);
  const Matching m = hopcroft_karp(g);
  const DmDecomposition dm = dulmage_mendelsohn(g, m);
  for (vid_t j = 0; j < g.num_cols(); ++j) {
    if (dm.col_part[static_cast<std::size_t>(j)] != DmPart::Vertical) continue;
    const vid_t i = m.col_match[static_cast<std::size_t>(j)];
    ASSERT_NE(i, kNil) << "V col " << j << " must be matched";
    EXPECT_EQ(dm.row_part[static_cast<std::size_t>(i)], DmPart::Vertical);
  }
}

TEST(Dm, UnmatchedVerticesLandInTheRightParts) {
  const BipartiteGraph g = make_erdos_renyi(300, 300, 600, 9);
  const Matching m = hopcroft_karp(g);
  const DmDecomposition dm = dulmage_mendelsohn(g, m);
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    if (!m.row_matched(i)) {
      EXPECT_EQ(dm.row_part[static_cast<std::size_t>(i)], DmPart::Vertical);
    }
  }
  for (vid_t j = 0; j < g.num_cols(); ++j) {
    if (!m.col_matched(j)) {
      EXPECT_EQ(dm.col_part[static_cast<std::size_t>(j)], DmPart::Horizontal);
    }
  }
}

TEST(Dm, NoEdgesFromSquareOrVerticalIntoHorizontalRows) {
  // In the block-triangular form, below-diagonal blocks are zero: an H-row
  // can see any column, but S/V rows cannot see H columns.
  const BipartiteGraph g = make_erdos_renyi(200, 220, 500, 11);
  const DmDecomposition dm = dm_of(g);
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    if (dm.row_part[static_cast<std::size_t>(i)] == DmPart::Horizontal) continue;
    for (const vid_t j : g.row_neighbors(i))
      EXPECT_NE(dm.col_part[static_cast<std::size_t>(j)], DmPart::Horizontal)
          << "edge (" << i << "," << j << ") violates block triangularity";
  }
  // Likewise V columns are only reachable from V rows... equivalently,
  // S rows cannot see V columns is NOT required; the zero blocks are
  // (S,H), (V,H), (V,S):
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    if (dm.row_part[static_cast<std::size_t>(i)] != DmPart::Vertical) continue;
    for (const vid_t j : g.row_neighbors(i))
      EXPECT_EQ(dm.col_part[static_cast<std::size_t>(j)], DmPart::Vertical);
  }
}

TEST(TotalSupport, CycleHasIt) { EXPECT_TRUE(dm_of(make_cycle(12)).total_support); }

TEST(TotalSupport, FullMatrixHasIt) { EXPECT_TRUE(dm_of(make_full(6)).total_support); }

TEST(TotalSupport, TriangularMatrixLacksIt) {
  // Upper triangular 3x3: perfect matching exists (the diagonal) but the
  // off-diagonal entries can be in no perfect matching.
  const BipartiteGraph g = graph_from_rows(3, 3, {{0, 1, 2}, {1, 2}, {2}});
  EXPECT_FALSE(dm_of(g).total_support);
}

TEST(TotalSupport, RectangularLacksIt) {
  EXPECT_FALSE(dm_of(make_erdos_renyi(3, 4, 6, 1)).total_support);
}

TEST(TotalSupport, DeficientLacksIt) {
  const BipartiteGraph g = graph_from_rows(2, 2, {{0}, {0}});
  EXPECT_FALSE(dm_of(g).total_support);
}

TEST(FullyIndecomposable, FullMatrixIs) {
  EXPECT_TRUE(dm_of(make_full(5)).fully_indecomposable);
}

TEST(FullyIndecomposable, CycleIs) {
  EXPECT_TRUE(dm_of(make_cycle(9)).fully_indecomposable);
}

TEST(FullyIndecomposable, BlockDiagonalIsNot) {
  // Total support holds but the matrix decomposes into two blocks.
  const BipartiteGraph g = make_block_diagonal({make_cycle(4), make_cycle(5)});
  EXPECT_TRUE(dm_of(g).total_support);
  EXPECT_FALSE(dm_of(g).fully_indecomposable);
}

TEST(FullyIndecomposable, PermutationIsNot) {
  const BipartiteGraph g = graph_from_rows(3, 3, {{1}, {2}, {0}});
  EXPECT_TRUE(dm_of(g).total_support);    // every entry in the (unique) PM
  EXPECT_FALSE(dm_of(g).fully_indecomposable);
}

TEST(DmFine, SingleSccForFullMatrix) {
  const DmDecomposition fine = dm_of(make_full(8));
  EXPECT_EQ(fine.num_blocks, 1);
  for (vid_t j = 0; j < 8; ++j) EXPECT_EQ(fine.col_block[static_cast<std::size_t>(j)], 0);
}

TEST(DmFine, BlockDiagonalCyclesGiveOneBlockEach) {
  const BipartiteGraph g = make_block_diagonal({make_cycle(4), make_cycle(5), make_cycle(6)});
  const DmDecomposition fine = dm_of(g);
  EXPECT_EQ(fine.num_blocks, 3);
  // Columns of the same cycle share a block; different cycles differ.
  EXPECT_EQ(fine.col_block[0], fine.col_block[3]);
  EXPECT_NE(fine.col_block[0], fine.col_block[4]);
  EXPECT_NE(fine.col_block[4], fine.col_block[9]);
}

TEST(DmFine, TriangularMatrixFullyDecomposes) {
  // Upper triangular: every diagonal entry is its own block (n blocks).
  const BipartiteGraph g =
      graph_from_rows(4, 4, {{0, 1, 2, 3}, {1, 2, 3}, {2, 3}, {3}});
  const DmDecomposition fine = dm_of(g);
  EXPECT_EQ(fine.num_blocks, 4);
}

TEST(DmFine, RowBlocksFollowMatchedColumns) {
  const BipartiteGraph g = make_block_diagonal({make_cycle(4), make_cycle(5)});
  const DmDecomposition fine = dm_of(g);
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    ASSERT_NE(fine.row_block[static_cast<std::size_t>(i)], kNil);
  }
  EXPECT_EQ(fine.row_block[0], fine.col_block[0]);
}

TEST(DmFine, HAndVColumnsExcluded) {
  const BipartiteGraph g = make_dm_structured(6, 10, 8, 9, 5, 2, 3);
  const DmDecomposition fine = dm_of(g);
  for (vid_t j = 0; j < g.num_cols(); ++j) {
    if (fine.col_part[static_cast<std::size_t>(j)] == DmPart::Square) {
      EXPECT_NE(fine.col_block[static_cast<std::size_t>(j)], kNil);
    } else {
      EXPECT_EQ(fine.col_block[static_cast<std::size_t>(j)], kNil);
    }
  }
  EXPECT_GE(fine.num_blocks, 1);
}

TEST(DmFine, BlockIdsGiveLowerTriangularOrder) {
  // An entry (i, j) of S never points to a later block than row i's own.
  for (const BipartiteGraph& g :
       {graph_from_rows(4, 4, {{0, 1, 2, 3}, {1, 2, 3}, {2, 3}, {3}}),
        make_dm_structured(6, 10, 40, 9, 5, 2, 3), make_erdos_renyi(300, 300, 700, 4)}) {
    const DmDecomposition dm = dm_of(g);
    for (vid_t i = 0; i < g.num_rows(); ++i) {
      if (dm.row_part[static_cast<std::size_t>(i)] != DmPart::Square) continue;
      for (const vid_t j : g.row_neighbors(i))
        if (dm.col_part[static_cast<std::size_t>(j)] == DmPart::Square) {
          EXPECT_LE(dm.col_block[static_cast<std::size_t>(j)],
                    dm.row_block[static_cast<std::size_t>(i)]);
        }
    }
  }
}

TEST(Dm, EmptyGraphEdgeCases) {
  // No rows: total support holds vacuously; 0x0 is not fully
  // indecomposable (it has no block).
  for (const vid_t cols : {0, 3}) {
    const DmDecomposition dm = dm_of(graph_from_rows(0, cols, {}));
    EXPECT_TRUE(dm.total_support) << cols;
    EXPECT_FALSE(dm.fully_indecomposable) << cols;
    EXPECT_EQ(dm.num_blocks, 0) << cols;
    EXPECT_EQ(dm.h_cols, cols);
  }
  const DmDecomposition tall = dm_of(graph_from_rows(3, 0, {{}, {}, {}}));
  EXPECT_FALSE(tall.total_support);
  EXPECT_EQ(tall.v_rows, 3);
  const DmDecomposition edgeless = dm_of(graph_from_rows(2, 2, {{}, {}}));
  EXPECT_FALSE(edgeless.total_support);
  EXPECT_EQ(edgeless.s_size, 0);
}

/// The record-level answers of one decomposition plus the König cover size.
struct Summary {
  vid_t sprank, h_rows, h_cols, s_size, v_rows, v_cols, num_blocks, cover;
  bool total_support, fully_indecomposable;
  std::vector<DmPart> row_part, col_part;
  bool operator==(const Summary&) const = default;
};

Summary summarize(const BipartiteGraph& g, const Matching& m) {
  const DmDecomposition dm = dulmage_mendelsohn(g, m);
  return {dm.sprank,        dm.h_rows,        dm.h_cols,     dm.s_size,
          dm.v_rows,        dm.v_cols,        dm.num_blocks, koenig_cover(g, m).size(),
          dm.total_support, dm.fully_indecomposable, dm.row_part, dm.col_part};
}

TEST(Dm, ResultsDoNotDependOnTheMaximumMatching) {
  std::vector<std::pair<std::string, BipartiteGraph>> inputs;
  int z = 0;
  for (BipartiteGraph& g : testing::small_graph_zoo())
    inputs.emplace_back("zoo" + std::to_string(z++), std::move(g));
  for (const std::uint64_t seed : {1, 2, 3}) {
    inputs.emplace_back("er", make_erdos_renyi(500, 500, 1200, seed));  // deficient
    inputs.emplace_back("er-wide", make_erdos_renyi(300, 420, 900, seed));
    inputs.emplace_back("er-tall", make_erdos_renyi(420, 300, 900, seed));
    inputs.emplace_back("planted", make_planted_perfect(500, 2, seed));
    inputs.emplace_back("dm", make_dm_structured(20, 30, 40, 35, 25, 2, seed));
  }
  inputs.emplace_back("mesh", make_mesh(20, 15));
  inputs.emplace_back("0x0", graph_from_rows(0, 0, {}));
  inputs.emplace_back("0x4", graph_from_rows(0, 4, {}));
  inputs.emplace_back("4x0", graph_from_rows(4, 0, {{}, {}, {}, {}}));
  inputs.emplace_back("edgeless", graph_from_rows(3, 3, {{}, {}, {}}));

  const std::vector<std::pair<const char*, std::function<Matching(const BipartiteGraph&)>>>
      solvers = {{"mc21", [](const BipartiteGraph& g) { return mc21(g); }},
                 {"push_relabel", [](const BipartiteGraph& g) { return push_relabel(g); }}};
  for (const auto& [name, g] : inputs) {
    const Summary reference = summarize(g, hopcroft_karp(g));
    EXPECT_EQ(reference.cover, reference.sprank) << name;
    for (const auto& [solver, solve] : solvers)
      EXPECT_TRUE(summarize(g, solve(g)) == reference) << name << " " << solver;
  }
}

} // namespace
} // namespace bmh
