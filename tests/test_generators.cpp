/// Unit and property tests for the synthetic graph generators, including
/// the exact structural guarantees of the Fig. 2 adversarial family.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <tuple>

#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "matching/hopcroft_karp.hpp"
#include "util/hash.hpp"

namespace bmh {
namespace {

TEST(ErdosRenyi, RespectsDimensionsAndDeterminism) {
  const BipartiteGraph a = make_erdos_renyi(100, 120, 500, 9);
  const BipartiteGraph b = make_erdos_renyi(100, 120, 500, 9);
  EXPECT_EQ(a.num_rows(), 100);
  EXPECT_EQ(a.num_cols(), 120);
  EXPECT_LE(a.num_edges(), 500);
  EXPECT_GT(a.num_edges(), 450);  // few duplicates at this density
  EXPECT_TRUE(a.structurally_equal(b));
}

TEST(ErdosRenyi, DifferentSeedsDiffer) {
  const BipartiteGraph a = make_erdos_renyi(100, 100, 400, 1);
  const BipartiteGraph b = make_erdos_renyi(100, 100, 400, 2);
  EXPECT_FALSE(a.structurally_equal(b));
}

TEST(ErdosRenyi, RejectsBadArguments) {
  EXPECT_THROW((void)make_erdos_renyi(0, 5, 10, 1), std::invalid_argument);
  EXPECT_THROW((void)make_erdos_renyi(5, 0, 10, 1), std::invalid_argument);
  EXPECT_THROW((void)make_erdos_renyi(5, 5, -1, 1), std::invalid_argument);
}

// Golden CSR fingerprints captured from the generator that drew each chunk
// into its own vector. The one-buffer form must leave every graph
// bit-identical: the chunk streams, their order and the builder input are
// unchanged. Tuples cover one partial chunk, exact and partial multi-chunk
// targets, a rectangular shape with empty rows, and no edges at all.
TEST(ErdosRenyi, OutputPinnedAcrossVersions) {
  struct Pin {
    vid_t rows;
    vid_t cols;
    eid_t nnz;
    std::uint64_t seed;
    eid_t edges;
    std::uint64_t row_ptr_fingerprint;
    std::uint64_t col_idx_fingerprint;
  };
  const Pin pins[] = {
      {100, 120, 500, 9, 494, 0x963d0b732fa8a219ull, 0x6c8e9155b278dff3ull},
      {1 << 14, 1 << 14, 8 << 14, 11, 131038, 0xa9fe28a9f327b085ull,
       0x173ca4aadcec7669ull},
      {3000, 2000, 200000, 5, 196675, 0xbd527f304a3e9584ull, 0xc6a2b2a113aa2015ull},
      {4096, 5000, 4096, 14, 4096, 0x3007a1c97ef4bc95ull, 0x3a4a49c8f449bba7ull},
      {7, 3, 0, 1, 0, 0xb9b23f3a46fd0825ull, 0xcbf29ce484222325ull},
  };
  const auto fingerprint = [](auto span) {
    return fnv1a64(std::string_view(reinterpret_cast<const char*>(span.data()),
                                    span.size_bytes()));
  };
  for (const Pin& pin : pins) {
    const BipartiteGraph g = make_erdos_renyi(pin.rows, pin.cols, pin.nnz, pin.seed);
    const std::string at = std::to_string(pin.rows) + "x" + std::to_string(pin.cols) +
                           " nnz=" + std::to_string(pin.nnz);
    EXPECT_EQ(g.num_edges(), pin.edges) << at;
    EXPECT_EQ(fingerprint(g.row_ptr()), pin.row_ptr_fingerprint) << at;
    EXPECT_EQ(fingerprint(g.col_idx()), pin.col_idx_fingerprint) << at;
  }
}

class KsAdversarialTest : public ::testing::TestWithParam<std::tuple<vid_t, vid_t>> {};

TEST_P(KsAdversarialTest, HasDocumentedBlockStructure) {
  const auto [n, k] = GetParam();
  const BipartiteGraph g = make_ks_adversarial(n, k);
  const vid_t half = n / 2;
  EXPECT_EQ(g.num_rows(), n);
  EXPECT_EQ(g.num_cols(), n);
  // R1 x C1 full.
  for (vid_t i = 0; i < half; i += half / 4)
    for (vid_t j = 0; j < half; j += half / 4) EXPECT_TRUE(g.has_edge(i, j));
  // R2 x C2 empty except nothing: check sampled entries.
  for (vid_t i = half; i < n; i += half / 4)
    for (vid_t j = half; j < n; j += half / 4)
      EXPECT_FALSE(g.has_edge(i, j)) << i << "," << j;
  // The cross diagonals exist (they form the perfect matching).
  for (vid_t i = 0; i < half; ++i) {
    EXPECT_TRUE(g.has_edge(i, half + i));
    EXPECT_TRUE(g.has_edge(half + i, i));
  }
  // Last k rows of R1 are full rows.
  for (vid_t i = half - k; i < half; ++i) EXPECT_EQ(g.row_degree(i), n);
  // Last k columns of C1 are full columns.
  for (vid_t j = half - k; j < half; ++j) EXPECT_EQ(g.col_degree(j), n);
}

TEST_P(KsAdversarialTest, HasPerfectMatching) {
  const auto [n, k] = GetParam();
  const BipartiteGraph g = make_ks_adversarial(n, k);
  EXPECT_EQ(sprank(g), n);
}

INSTANTIATE_TEST_SUITE_P(Family, KsAdversarialTest,
                         ::testing::Values(std::make_tuple(vid_t{32}, vid_t{2}),
                                           std::make_tuple(vid_t{64}, vid_t{4}),
                                           std::make_tuple(vid_t{128}, vid_t{8}),
                                           std::make_tuple(vid_t{256}, vid_t{2}),
                                           std::make_tuple(vid_t{256}, vid_t{16})));

TEST(KsAdversarial, RejectsOddN) {
  EXPECT_THROW((void)make_ks_adversarial(33, 2), std::invalid_argument);
}

TEST(PlantedPerfect, AlwaysFullSprank) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const BipartiteGraph g = make_planted_perfect(200, 3, seed);
    EXPECT_EQ(sprank(g), 200);
  }
}

TEST(PlantedPerfect, ExtraEdgesIncreaseDensity) {
  const BipartiteGraph sparse = make_planted_perfect(100, 0, 1);
  const BipartiteGraph dense = make_planted_perfect(100, 5, 1);
  EXPECT_EQ(sparse.num_edges(), 100);
  EXPECT_GT(dense.num_edges(), 400);
}

TEST(Full, IsCompleteBipartite) {
  const BipartiteGraph g = make_full(7);
  EXPECT_EQ(g.num_edges(), 49);
  for (vid_t i = 0; i < 7; ++i) EXPECT_EQ(g.row_degree(i), 7);
}

TEST(Mesh, FivePointStencilDegrees) {
  const BipartiteGraph g = make_mesh(10, 10);
  EXPECT_EQ(g.num_rows(), 100);
  // Interior vertices have degree 5; corners 3; edges 4.
  EXPECT_EQ(g.row_degree(0), 3);        // corner (0,0)
  EXPECT_EQ(g.row_degree(5), 4);        // boundary
  EXPECT_EQ(g.row_degree(55), 5);       // interior
  EXPECT_EQ(sprank(g), 100);            // diagonal makes it full sprank
}

TEST(RoadLike, DropFractionCreatesSprankDeficiency) {
  const BipartiteGraph full = make_road_like(5000, 0.2, 0.0, 3);
  EXPECT_EQ(sprank(full), 5000);  // diagonal + superdiagonal intact
  const BipartiteGraph deficient = make_road_like(5000, 0.0, 0.10, 3);
  const double ratio = static_cast<double>(sprank(deficient)) / 5000.0;
  EXPECT_LT(ratio, 1.0);
  EXPECT_GT(ratio, 0.85);
}

TEST(RoadLike, AverageDegreeNearTwo) {
  const BipartiteGraph g = make_road_like(10000, 0.1, 0.0, 1);
  EXPECT_NEAR(average_degree(g), 2.1, 0.2);
}

TEST(PowerLaw, HasHighDegreeVariance) {
  const BipartiteGraph g = make_power_law(2000, 20.0, 1.5, 7);
  const DegreeStats rows = row_degree_stats(g);
  EXPECT_GT(rows.variance, 10.0 * rows.mean);  // heavy tail
  EXPECT_EQ(sprank(g), 2000);                  // permutation planted
}

TEST(PowerLaw, RejectsBadShape) {
  EXPECT_THROW((void)make_power_law(10, 2.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW((void)make_power_law(10, 0.5, 2.0, 1), std::invalid_argument);
}

TEST(KktLike, IsSquareSymmetricStructureWithFullSprank) {
  const BipartiteGraph g = make_kkt_like(300, 100, 3, 11);
  EXPECT_EQ(g.num_rows(), 400);
  EXPECT_EQ(sprank(g), 400);
  // Structural symmetry of the saddle-point form: (i,j) edge implies (j,i).
  for (vid_t i = 0; i < g.num_rows(); i += 13)
    for (const vid_t j : g.row_neighbors(i)) EXPECT_TRUE(g.has_edge(j, i));
}

TEST(OneOut, EveryRowHasExactlyOneChoice) {
  const BipartiteGraph g = make_one_out(500, 3);
  for (vid_t i = 0; i < 500; ++i) EXPECT_EQ(g.row_degree(i), 1);
  EXPECT_EQ(g.num_edges(), 500);
}

TEST(OneOut, ThreadCountIndependent) {
  // Forked per-row streams: same seed gives the same graph however many
  // threads generated it (we just re-run; the runtime may vary threads).
  const BipartiteGraph a = make_one_out(2000, 77);
  const BipartiteGraph b = make_one_out(2000, 77);
  EXPECT_TRUE(a.structurally_equal(b));
}

TEST(Cycle, IsTwoRegular) {
  const BipartiteGraph g = make_cycle(9);
  for (vid_t i = 0; i < 9; ++i) {
    EXPECT_EQ(g.row_degree(i), 2);
    EXPECT_EQ(g.col_degree(i), 2);
  }
  EXPECT_EQ(sprank(g), 9);
}

TEST(RowRegular, ExactRowDegrees) {
  const BipartiteGraph g = make_row_regular(300, 4, 5);
  for (vid_t i = 0; i < 300; ++i) EXPECT_EQ(g.row_degree(i), 4);
}

TEST(BlockDiagonal, ConcatenatesBlocks) {
  const BipartiteGraph a = make_full(3);
  const BipartiteGraph b = make_cycle(4);
  const BipartiteGraph g = make_block_diagonal({a, b});
  EXPECT_EQ(g.num_rows(), 7);
  EXPECT_EQ(g.num_edges(), a.num_edges() + b.num_edges());
  EXPECT_TRUE(g.has_edge(0, 0));
  EXPECT_TRUE(g.has_edge(3, 3));   // block b offset by 3
  EXPECT_FALSE(g.has_edge(0, 3));  // no cross-block edges
}

TEST(DmStructured, BlockSprankComposition) {
  // sprank = h_rows + s_n + v_cols: H contributes all its rows, S is
  // perfect, V contributes all its columns.
  const BipartiteGraph g = make_dm_structured(10, 15, 20, 18, 12, 2, 3);
  EXPECT_EQ(g.num_rows(), 10 + 20 + 18);
  EXPECT_EQ(g.num_cols(), 15 + 20 + 12);
  EXPECT_EQ(sprank(g), 10 + 20 + 12);
}

TEST(DmStructured, RejectsInvalidShapes) {
  EXPECT_THROW((void)make_dm_structured(10, 5, 5, 5, 5, 1, 1), std::invalid_argument);
  EXPECT_THROW((void)make_dm_structured(5, 10, 5, 5, 8, 1, 1), std::invalid_argument);
}

/// Expects `build` to throw std::invalid_argument whose message starts with
/// `generator`: a vertex count that overflows 32 bits is rejected by name,
/// before anything proportional to it is allocated.
template <typename Build>
void expect_rejected_by_name(Build build, const std::string& generator) {
  try {
    (void)build();
    ADD_FAILURE() << generator << " accepted an overflowing dimension";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind(generator, 0), 0u) << e.what();
  }
}

TEST(GeneratorDimensions, SumsAndProductsPastTheVertexIdRangeAreRejected) {
  constexpr vid_t kBig = 2'000'000'000;
  expect_rejected_by_name([] { return make_mesh(kBig, 2); }, "make_mesh");
  expect_rejected_by_name([] { return make_mesh(65536, 65536); }, "make_mesh");
  expect_rejected_by_name([] { return make_kkt_like(kBig, kBig, 1, 1); }, "make_kkt_like");
  expect_rejected_by_name([] { return make_dm_structured(kBig, kBig, kBig, 0, 0, 0, 1); },
                          "make_dm_structured");
  expect_rejected_by_name([] { return make_dm_structured(0, kBig, 0, kBig, kBig, 0, 1); },
                          "make_dm_structured");
  // Road's edge count is computed in 64 bits too; a shortcut count that is
  // not a valid edge count (or not a number) is rejected up front.
  expect_rejected_by_name([] { return make_road_like(1 << 20, 1e13, 0.0, 1); },
                          "make_road_like");
  expect_rejected_by_name(
      [] { return make_road_like(64, std::numeric_limits<double>::quiet_NaN(), 0.0, 1); },
      "make_road_like");
  // Shapes whose counts fit are built as before.
  EXPECT_EQ(make_mesh(3, 5).num_rows(), 15);
  EXPECT_EQ(make_kkt_like(8, 3, 2, 1).num_rows(), 11);
}

} // namespace
} // namespace bmh
