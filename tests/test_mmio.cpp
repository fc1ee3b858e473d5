/// Unit tests for Matrix Market I/O: banner parsing, all supported fields
/// and symmetries, error reporting, and write/read round-trips.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/mmio.hpp"
#include "matching/push_relabel.hpp"
#include "test_helpers.hpp"

namespace bmh {
namespace {

using namespace testing;

TEST(Mmio, ReadsPatternGeneral) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% a comment\n"
      "3 4 3\n"
      "1 1\n"
      "2 3\n"
      "3 4\n");
  const BipartiteGraph g = read_matrix_market(in);
  EXPECT_EQ(g.num_rows(), 3);
  EXPECT_EQ(g.num_cols(), 4);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_TRUE(has_edge(g, 0, 0));
  EXPECT_TRUE(has_edge(g, 1, 2));
  EXPECT_TRUE(has_edge(g, 2, 3));
}

TEST(Mmio, DiscardsRealValues) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 3.5\n"
      "2 2 -1e-3\n");
  const BipartiteGraph g = read_matrix_market(in);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(Mmio, DiscardsComplexValues) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate complex general\n"
      "2 2 1\n"
      "1 2 3.5 -2.0\n");
  const BipartiteGraph g = read_matrix_market(in);
  EXPECT_TRUE(has_edge(g, 0, 1));
}

TEST(Mmio, MirrorsSymmetricEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n");
  const BipartiteGraph g = read_matrix_market(in);
  EXPECT_TRUE(has_edge(g, 1, 0));
  EXPECT_TRUE(has_edge(g, 0, 1));   // mirrored
  EXPECT_TRUE(has_edge(g, 2, 2));   // diagonal not duplicated
  EXPECT_EQ(g.num_edges(), 3);
}

TEST(Mmio, RejectsMissingBanner) {
  std::istringstream in("3 3 0\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(Mmio, RejectsNonCoordinate) {
  std::istringstream in("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(Mmio, RejectsOutOfRangeEntry) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "3 1\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(Mmio, RejectsTruncatedFile) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n");
  EXPECT_THROW((void)read_matrix_market(in), std::runtime_error);
}

TEST(Mmio, RejectsACountTheFileCannotHold) {
  // Four billion declared entries in a 3-line file: the reader must report
  // the missing lines, not try to reserve room for them first.
  const std::string text =
      "%%MatrixMarket matrix coordinate pattern general\n"
      "4 4 4000000000\n"
      "1 1\n";
  const auto expect_eof = [](std::istream& in) {
    try {
      (void)read_matrix_market(in);
      FAIL() << "expected parse error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unexpected end of file"), std::string::npos)
          << e.what();
    }
  };
  std::istringstream in(text);
  expect_eof(in);
  const std::string path =
      ::testing::TempDir() + "bmh_mmio_huge_count_" + std::to_string(::getpid()) + ".mtx";
  {
    std::ofstream out(path);
    out << text;
  }
  std::ifstream file(path);
  expect_eof(file);
  std::remove(path.c_str());
}

TEST(Mmio, ErrorMentionsLineNumber) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "oops\n");
  try {
    (void)read_matrix_market(in);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(Mmio, MissingFileThrows) {
  EXPECT_THROW((void)read_matrix_market_file("/nonexistent/foo.mtx"), std::runtime_error);
}

TEST(Mmio, RejectsUnknownField) {
  // A typo'd field used to be silently treated as a one-value-token field.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate floatingpoint general\n"
      "2 2 1\n"
      "1 1 3.5\n");
  try {
    (void)read_matrix_market(in);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("floatingpoint"), std::string::npos) << what;
  }
}

TEST(Mmio, AcceptsIntegerField) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate integer general\n"
      "2 2 2\n"
      "1 2 4\n"
      "2 1 -1\n");
  EXPECT_EQ(read_matrix_market(in).num_edges(), 2);
}

TEST(Mmio, RejectsTrailingGarbageOnPatternEntry) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 2 0.5\n");  // pattern entries carry no value token
  try {
    (void)read_matrix_market(in);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("trailing"), std::string::npos) << what;
  }
}

TEST(Mmio, RejectsTrailingGarbageOnRealEntry) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1 3.5 junk\n");
  try {
    (void)read_matrix_market(in);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("junk"), std::string::npos) << what;
  }
}

TEST(Mmio, SymmetricWithDiagonalRoundTrip) {
  // Strictly-lower entries mirror, diagonal entries do not duplicate; the
  // general-form rewrite must reproduce the same structure.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 4\n"
      "1 1 1.0\n"
      "2 1 2.0\n"
      "3 2 3.0\n"
      "3 3 4.0\n");
  const BipartiteGraph g = read_matrix_market(in);
  EXPECT_EQ(g.num_edges(), 6);  // 2 diagonal + 2 mirrored pairs
  EXPECT_TRUE(has_edge(g, 0, 0));
  EXPECT_TRUE(has_edge(g, 1, 0));
  EXPECT_TRUE(has_edge(g, 0, 1));
  EXPECT_TRUE(has_edge(g, 2, 1));
  EXPECT_TRUE(has_edge(g, 1, 2));
  EXPECT_TRUE(has_edge(g, 2, 2));
}

TEST(Mmio, RejectsContentAfterDeclaredEntries) {
  // A size line undercounting its entries means the file is corrupt or
  // truncated mid-edit; serving the first nnz entries would silently serve
  // a different matrix.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "1 1\n"
      "2 2\n");
  try {
    (void)read_matrix_market(in);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("after the declared 1"), std::string::npos) << what;
  }
}

TEST(Mmio, AcceptsTrailingBlanksAndComments) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "1 1\n"
      "\n"
      "   \n"
      "% closing remark\n");
  EXPECT_EQ(read_matrix_market(in).num_edges(), 1);
}

TEST(Mmio, ReadsRectGeneralFixture) {
  const BipartiteGraph g =
      read_matrix_market_file(std::string(BMH_TEST_DATA_DIR) + "/rect_general.mtx");
  EXPECT_EQ(g.num_rows(), 4);
  EXPECT_EQ(g.num_cols(), 6);
  EXPECT_EQ(g.num_edges(), 7);
  EXPECT_TRUE(has_edge(g, 0, 3));
  EXPECT_TRUE(has_edge(g, 3, 5));
  EXPECT_EQ(run_ws(sprank_ws, g), 4);
}

TEST(Mmio, ReadsCycleSymmetricFixture) {
  const BipartiteGraph g = read_matrix_market_file(std::string(BMH_TEST_DATA_DIR) +
                                                   "/cycle5_symmetric.mtx");
  EXPECT_EQ(g.num_rows(), 5);
  EXPECT_EQ(g.num_cols(), 5);
  EXPECT_EQ(g.num_edges(), 11);  // 5 mirrored pairs + 1 diagonal
  EXPECT_TRUE(is_pattern_symmetric(g));
  EXPECT_TRUE(has_edge(g, 1, 0));
  EXPECT_TRUE(has_edge(g, 0, 1));
  EXPECT_TRUE(has_edge(g, 2, 2));
  EXPECT_EQ(run_ws(sprank_ws, g), 5);
}

} // namespace
} // namespace bmh
