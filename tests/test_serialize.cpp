/// \file test_serialize.cpp
/// \brief Tests for the binary graph file format (graph/serialize.hpp): exact
/// round trips through the zero-copy mmap loader across the graph zoo, the
/// pluggable-storage semantics of mapped graphs (read-only views, conversion
/// back to owned storage on mutation), and — most importantly — hostile
/// inputs: truncation, bad magic, CRC corruption, header/payload
/// disagreements. The loader must reject each with the offending path named,
/// never crash, and never serve a corrupt graph. The CRC is checked against a
/// bit-at-a-time reference, and a store file written by an earlier build
/// (tests/data) must keep loading.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <vector>

#include "test_helpers.hpp"

namespace bmh {
namespace {

using namespace testing;

namespace fs = std::filesystem;

class SerializeTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = testing::scratch_dir("bmh_serialize_");
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string file(const char* name) const {
    return (dir_ / name).string();
  }

  static std::vector<char> read_all(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  static void write_all(const std::string& path, const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Re-stamps the header CRC so deliberate payload edits stay "valid" —
  /// the way to reach the semantic checks behind the checksum.
  static void restamp_crc(std::vector<char>& bytes) {
    GraphFileHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    header.payload_crc32 = crc32_ieee(bytes.data() + sizeof(header),
                                      bytes.size() - sizeof(header));
    std::memcpy(bytes.data(), &header, sizeof(header));
  }

  fs::path dir_;
};

template <typename T>
std::vector<T> to_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

// -------------------------------------------------------------- round trip ---

TEST_F(SerializeTest, RoundTripIsExactAcrossTheZoo) {
  int idx = 0;
  for (const BipartiteGraph& g : testing::small_graph_zoo()) {
    const std::string path = file(("zoo" + std::to_string(idx++)).c_str());
    save_graph(g, path, "zoo-key");
    std::string key;
    const BipartiteGraph loaded = load_graph_mapped(path, &key);
    EXPECT_EQ(key, "zoo-key");
    EXPECT_FALSE(loaded.owns_storage());
    EXPECT_TRUE(g.owns_storage());
    ASSERT_EQ(loaded.num_rows(), g.num_rows());
    ASSERT_EQ(loaded.num_cols(), g.num_cols());
    ASSERT_EQ(loaded.num_edges(), g.num_edges());
    // Not just structural equality: the mapped arrays are byte-exact copies
    // of the originals, CSC included (no reconstruction on load).
    EXPECT_EQ(to_vector(loaded.row_ptr()), to_vector(g.row_ptr()));
    EXPECT_EQ(to_vector(loaded.col_idx()), to_vector(g.col_idx()));
    EXPECT_EQ(to_vector(loaded.col_ptr()), to_vector(g.col_ptr()));
    EXPECT_EQ(to_vector(loaded.row_idx()), to_vector(g.row_idx()));
    EXPECT_TRUE(structurally_equal(loaded, g));
    // memory_bytes accounts the mapped file, and the recorded size matches.
    EXPECT_EQ(loaded.memory_bytes(), fs::file_size(path));
    EXPECT_EQ(serialized_graph_bytes(g, "zoo-key"), fs::file_size(path));
  }
}

TEST_F(SerializeTest, RoundTripBiggerGeneratedGraph) {
  const BipartiteGraph g = build_graph(parse_graph_spec("gen:er:n=1024,deg=8"), 42);
  const std::string path = file("er.bmg");
  save_graph(g, path);  // keyless files are fine
  std::string key;
  const BipartiteGraph loaded = load_graph_mapped(path, &key);
  EXPECT_TRUE(key.empty());
  EXPECT_TRUE(structurally_equal(loaded, g));
  EXPECT_EQ(to_vector(loaded.col_ptr()), to_vector(g.col_ptr()));
  EXPECT_EQ(to_vector(loaded.row_idx()), to_vector(g.row_idx()));
}

TEST_F(SerializeTest, EmptyAndEdgelessGraphsRoundTrip) {
  const BipartiteGraph empty;
  const std::string path = file("empty.bmg");
  save_graph(empty, path, "k");
  const BipartiteGraph loaded = load_graph_mapped(path);
  EXPECT_EQ(loaded.num_rows(), 0);
  EXPECT_EQ(loaded.num_cols(), 0);
  EXPECT_EQ(loaded.num_edges(), 0);

  // Nonzero dimensions, zero edges.
  const BipartiteGraph edgeless(3, 5, {0, 0, 0, 0}, {});
  const std::string path2 = file("edgeless.bmg");
  save_graph(edgeless, path2);
  EXPECT_TRUE(structurally_equal(load_graph_mapped(path2), edgeless));
}

// ------------------------------------------- mapped graphs behave normally ---

TEST_F(SerializeTest, MappedGraphSupportsTheFullReadApi) {
  const BipartiteGraph g = build_graph(parse_graph_spec("gen:mesh:nx=8"), 1);
  const std::string path = file("mesh.bmg");
  save_graph(g, path);
  const BipartiteGraph m = load_graph_mapped(path);
  for (vid_t i = 0; i < g.num_rows(); ++i) {
    EXPECT_EQ(to_vector(m.row_neighbors(i)), to_vector(g.row_neighbors(i)));
    EXPECT_EQ(m.row_degree(i), g.row_degree(i));
  }
  for (vid_t j = 0; j < g.num_cols(); ++j)
    EXPECT_EQ(to_vector(m.col_neighbors(j)), to_vector(g.col_neighbors(j)));
  EXPECT_TRUE(structurally_equal(m.transposed(), g.transposed()));
  EXPECT_EQ(has_edge(m, 0, 0), has_edge(g, 0, 0));

  // Copies of a mapped graph share the mapping (cheap) and stay external;
  // the matching pipeline runs on them like on any owned graph.
  const BipartiteGraph copy = m;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_FALSE(copy.owns_storage());
  EXPECT_EQ(copy.row_ptr().data(), m.row_ptr().data());
  const Matching matched = run_ws(match_random_vertices_ws, copy, 1);
  testing::expect_valid(copy, matched, "greedy on mapped graph");
}

TEST_F(SerializeTest, RebuildConvertsMappedGraphToOwnedStorage) {
  const BipartiteGraph g = build_graph(parse_graph_spec("gen:cycle:n=32"), 1);
  const std::string path = file("cycle.bmg");
  save_graph(g, path);
  BipartiteGraph m = load_graph_mapped(path);
  ASSERT_FALSE(m.owns_storage());
  // Mutation must never write the mapped (read-only) bytes: the rebuild
  // switches the graph to fresh owned vectors.
  testing::rebuild_from(m, graph_from_rows(2, 2, {{1}, {0}}));
  EXPECT_TRUE(m.owns_storage());
  EXPECT_EQ(m.num_rows(), 2);
  EXPECT_TRUE(has_edge(m, 0, 1));
  EXPECT_EQ(m.num_edges(), 2);
  // The original file still loads intact.
  EXPECT_TRUE(structurally_equal(load_graph_mapped(path), g));

  // A mapped graph is a source like any other: its arrays, rebuilt into
  // an owned graph, give its own four arrays.
  const BipartiteGraph mapped = load_graph_mapped(path);
  BipartiteGraph owned;
  testing::rebuild_from(owned, mapped);
  EXPECT_TRUE(owned.owns_storage());
  testing::expect_same_arrays(owned, g, "mapped source");
}

// ---------------------------------------------------------- hostile inputs ---

TEST_F(SerializeTest, RejectsMissingFileNamingPath) {
  const std::string path = file("nope.bmg");
  EXPECT_THROW(
      {
        try {
          (void)load_graph_mapped(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
          // An I/O failure is NOT a content rejection: GraphStore must not
          // treat it as a deletable bad file.
          EXPECT_EQ(dynamic_cast<const GraphFileError*>(&e), nullptr);
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(SerializeTest, RejectsTruncatedFileNamingPath) {
  const BipartiteGraph g = build_graph(parse_graph_spec("gen:er:n=64,deg=4"), 7);
  const std::string path = file("trunc.bmg");
  save_graph(g, path, "key");
  std::vector<char> bytes = read_all(path);
  // Every prefix must be rejected: mid-header, mid-key, mid-array.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, sizeof(GraphFileHeader) - 1,
        sizeof(GraphFileHeader) + 2, bytes.size() - 1}) {
    write_all(path, {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(keep)});
    EXPECT_THROW(
        {
          try {
            (void)load_graph_mapped(path);
          } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
                << "keep=" << keep << ": " << e.what();
            throw;
          }
        },
        std::runtime_error)
        << "keep=" << keep;
  }
}

TEST_F(SerializeTest, RejectsBadMagicNamingPath) {
  const std::string path = file("magic.bmg");
  save_graph(BipartiteGraph(2, 2, {0, 1, 2}, {0, 1}), path);
  std::vector<char> bytes = read_all(path);
  bytes[0] ^= 0x5A;
  write_all(path, bytes);
  EXPECT_THROW(
      {
        try {
          (void)load_graph_mapped(path);
        } catch (const std::runtime_error& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find(path), std::string::npos) << what;
          EXPECT_NE(what.find("magic"), std::string::npos) << what;
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(SerializeTest, RejectsUnsupportedVersion) {
  const std::string path = file("version.bmg");
  save_graph(BipartiteGraph(2, 2, {0, 1, 2}, {0, 1}), path);
  std::vector<char> bytes = read_all(path);
  GraphFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.version = 999;
  std::memcpy(bytes.data(), &header, sizeof(header));
  write_all(path, bytes);
  EXPECT_THROW((void)load_graph_mapped(path), std::runtime_error);
}

TEST_F(SerializeTest, RejectsCrcMismatchNamingPath) {
  const BipartiteGraph g = build_graph(parse_graph_spec("gen:er:n=128,deg=4"), 3);
  const std::string path = file("crc.bmg");
  save_graph(g, path, "key");
  std::vector<char> bytes = read_all(path);
  // Flip one payload byte deep inside the edge arrays.
  bytes[bytes.size() / 2] ^= 0x01;
  write_all(path, bytes);
  EXPECT_THROW(
      {
        try {
          (void)load_graph_mapped(path);
        } catch (const GraphFileError& e) {  // the self-heal-eligible class
          const std::string what = e.what();
          EXPECT_NE(what.find(path), std::string::npos) << what;
          EXPECT_NE(what.find("CRC"), std::string::npos) << what;
          throw;
        }
      },
      GraphFileError);
}

TEST_F(SerializeTest, RejectsHeaderCountDisagreeingWithFileSize) {
  const std::string path = file("counts.bmg");
  save_graph(build_graph(parse_graph_spec("gen:cycle:n=16"), 1), path);
  std::vector<char> bytes = read_all(path);
  GraphFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.num_edges += 4;  // claims more edges than the file holds
  std::memcpy(bytes.data(), &header, sizeof(header));
  write_all(path, bytes);
  EXPECT_THROW(
      {
        try {
          (void)load_graph_mapped(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(SerializeTest, RejectsCrcValidButSemanticallyCorruptArrays) {
  // The deep check: forge a file whose sizes and CRC are all consistent but
  // whose arrays disagree (row_ptr bounds vs the declared edge count). The
  // loader's structural validation must still reject it — CRC alone is not
  // trusted to certify semantics.
  const BipartiteGraph g(3, 3, {0, 1, 2, 3}, {0, 1, 2});
  const std::string path = file("forged.bmg");
  save_graph(g, path, "k");
  std::vector<char> bytes = read_all(path);
  GraphFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  // row_ptr starts after the key padded to 8; its last entry (offset 3*8)
  // says where the edge list ends. Inflate it beyond num_edges.
  const std::size_t row_ptr_off = (sizeof(GraphFileHeader) + header.key_bytes + 7) / 8 * 8;
  eid_t bad = 99;
  std::memcpy(bytes.data() + row_ptr_off + 3 * sizeof(eid_t), &bad, sizeof(bad));
  restamp_crc(bytes);
  write_all(path, bytes);
  EXPECT_THROW(
      {
        try {
          (void)load_graph_mapped(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
          throw;
        }
      },
      std::runtime_error);

  // Likewise a column id pointing outside [0, num_cols).
  save_graph(g, path, "k");
  std::vector<char> fresh = read_all(path);
  const std::size_t col_idx_off = row_ptr_off + 4 * sizeof(eid_t);
  vid_t bad_col = 7;  // num_cols is 3
  std::memcpy(fresh.data() + col_idx_off, &bad_col, sizeof(bad_col));
  restamp_crc(fresh);
  write_all(path, fresh);
  EXPECT_THROW((void)load_graph_mapped(path), std::runtime_error);
}

TEST_F(SerializeTest, RejectsCscDisagreeingWithCsr) {
  // CSC arrays that are internally valid but describe different edges than
  // the CSR half: the per-column degree cross-check must reject the file.
  const BipartiteGraph g(2, 2, {0, 1, 2}, {0, 1});  // diagonal: (0,0), (1,1)
  const std::string path = file("csclie.bmg");
  save_graph(g, path);
  std::vector<char> bytes = read_all(path);
  GraphFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  const std::size_t row_ptr_off = (sizeof(GraphFileHeader) + header.key_bytes + 7) / 8 * 8;
  // Layout: row_ptr[3], col_idx[2] (+pad), col_ptr[3], row_idx[2].
  const std::size_t col_idx_off = row_ptr_off + 3 * sizeof(eid_t);
  const std::size_t col_ptr_off = (col_idx_off + 2 * sizeof(vid_t) + 7) / 8 * 8;
  // Claim both edges land in column 0: col_ptr = {0, 2, 2}, row_idx = {0, 1}.
  const eid_t lying_col_ptr[3] = {0, 2, 2};
  std::memcpy(bytes.data() + col_ptr_off, lying_col_ptr, sizeof(lying_col_ptr));
  restamp_crc(bytes);
  write_all(path, bytes);
  EXPECT_THROW(
      {
        try {
          (void)load_graph_mapped(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(SerializeTest, RejectsDegreePreservingCscForgery) {
  // Degree-preserving tampering: swap the two row_idx entries of the
  // diagonal 2x2 graph so every per-column degree still matches while the
  // CSC describes the anti-diagonal. The transpose cross-check must reject
  // it — a served copy would hand algorithms two different edge sets.
  const BipartiteGraph g(2, 2, {0, 1, 2}, {0, 1});  // edges (0,0), (1,1)
  const std::string path = file("swapped.bmg");
  save_graph(g, path);
  std::vector<char> bytes = read_all(path);
  // Layout (keyless): header, row_ptr[3], col_idx[2] + pad, col_ptr[3],
  // row_idx[2].
  const std::size_t row_ptr_off = sizeof(GraphFileHeader);
  const std::size_t col_ptr_off =
      (row_ptr_off + 3 * sizeof(eid_t) + 2 * sizeof(vid_t) + 7) / 8 * 8;
  const std::size_t row_idx_off = col_ptr_off + 3 * sizeof(eid_t);
  const vid_t swapped[2] = {1, 0};
  std::memcpy(bytes.data() + row_idx_off, swapped, sizeof(swapped));
  restamp_crc(bytes);
  write_all(path, bytes);
  EXPECT_THROW(
      {
        try {
          (void)load_graph_mapped(path);
        } catch (const std::runtime_error& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find(path), std::string::npos) << what;
          EXPECT_NE(what.find("transpose"), std::string::npos) << what;
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(SerializeTest, TransposeCheckRejectsLargeForgeriesAtEveryTeamSize) {
  // Past 2^15 edges the transpose check splits the rows into one block per
  // thread, balanced by edges (row 0 is always in the first block, the last
  // row in the last). Each forgery below keeps both halves valid on their
  // own, keeps the edge total, and is CRC-restamped, so only the transpose
  // check can reject it; it must at every team size, with the same message.
  const BipartiteGraph g = make_planted_perfect(8192, 4, 3);
  ASSERT_GE(g.num_edges(), eid_t{1} << 15);
  const auto rows = static_cast<std::size_t>(g.num_rows());
  const auto cols = static_cast<std::size_t>(g.num_cols());
  const auto nnz = static_cast<std::size_t>(g.num_edges());
  const std::string path = file("large.bmg");
  save_graph(g, path);
  const std::vector<char> pristine = read_all(path);
  // Keyless layout: header, row_ptr, col_idx + pad to 8, col_ptr, row_idx.
  const std::size_t col_ptr_off =
      (sizeof(GraphFileHeader) + (rows + 1) * sizeof(eid_t) + nnz * sizeof(vid_t) + 7) / 8 *
      8;
  const std::size_t row_idx_off = col_ptr_off + (cols + 1) * sizeof(eid_t);
  const std::vector<eid_t> col_ptr = to_vector(g.col_ptr());
  const std::vector<vid_t> row_idx = to_vector(g.row_idx());
  ASSERT_EQ(std::memcmp(pristine.data() + row_idx_off, row_idx.data(),
                        nnz * sizeof(vid_t)),
            0);
  const auto forge = [&](const std::vector<eid_t>& forged_ptr,
                         const std::vector<vid_t>& forged_idx) {
    std::vector<char> bytes = pristine;
    std::memcpy(bytes.data() + col_ptr_off, forged_ptr.data(), (cols + 1) * sizeof(eid_t));
    std::memcpy(bytes.data() + row_idx_off, forged_idx.data(), nnz * sizeof(vid_t));
    restamp_crc(bytes);
    return bytes;
  };
  const auto column = [&](std::vector<vid_t>& idx, std::size_t j) {
    return std::span<vid_t>(idx).subspan(
        static_cast<std::size_t>(col_ptr[j]), static_cast<std::size_t>(col_ptr[j + 1] - col_ptr[j]));
  };
  const auto has_edge = [&](std::size_t i, std::size_t j) {
    const std::span<const vid_t> nbrs = g.row_neighbors(static_cast<vid_t>(i));
    return std::find(nbrs.begin(), nbrs.end(), static_cast<vid_t>(j)) != nbrs.end();
  };

  std::vector<std::pair<const char*, std::vector<char>>> forgeries;
  {
    // One column, mid-graph: an entry moves to the next row, still sorted,
    // so the edge (r, j) becomes (r + 1, j).
    std::vector<vid_t> idx = row_idx;
    std::size_t j = cols / 2;
    while (true) {
      const std::span<vid_t> c = column(idx, j);
      if (c.size() >= 2 && c[0] + 1 < c[1]) {
        ++c[0];
        break;
      }
      ++j;
      ASSERT_LT(j, cols);
    }
    forgeries.emplace_back("one column", forge(col_ptr, idx));
  }
  {
    // Edges (0, j1) and (last, j2) become (last, j1) and (0, j2): every
    // degree holds, and the two rows sit in the first and last blocks.
    const std::size_t last = rows - 1;
    std::size_t j1 = 0;
    while (!has_edge(0, j1) || has_edge(last, j1)) ++j1;
    std::size_t j2 = 0;
    while (!has_edge(last, j2) || has_edge(0, j2)) ++j2;
    std::vector<vid_t> idx = row_idx;
    const std::span<vid_t> c1 = column(idx, j1);
    const std::span<vid_t> c2 = column(idx, j2);
    *std::find(c1.begin(), c1.end(), vid_t{0}) = static_cast<vid_t>(last);
    *std::find(c2.begin(), c2.end(), static_cast<vid_t>(last)) = 0;
    std::sort(c1.begin(), c1.end());
    std::sort(c2.begin(), c2.end());
    forgeries.emplace_back("across blocks", forge(col_ptr, idx));
  }
  {
    // A column boundary moves by one: column j hands its last row to column
    // j + 1, whose rows all lie above it, so both stay sorted while their
    // counts no longer match the CSR's.
    std::vector<eid_t> ptr = col_ptr;
    std::size_t j = cols / 3;
    while (col_ptr[j + 1] == col_ptr[j] ||
           (col_ptr[j + 2] > col_ptr[j + 1] &&
            row_idx[static_cast<std::size_t>(col_ptr[j + 1]) - 1] >=
                row_idx[static_cast<std::size_t>(col_ptr[j + 1])]))
      ++j;
    --ptr[j + 1];
    forgeries.emplace_back("column counts", forge(ptr, row_idx));
  }

  for (const int team : {1, 2, 3, 4}) {
    const ThreadCountGuard guard(team);
    write_all(path, pristine);
    EXPECT_TRUE(structurally_equal(load_graph_mapped(path), g)) << "team " << team;
    for (const auto& [name, bytes] : forgeries) {
      write_all(path, bytes);
      try {
        (void)load_graph_mapped(path);
        ADD_FAILURE() << name << " loaded at team " << team;
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path), std::string::npos) << name << ": " << what;
        EXPECT_NE(what.find("transpose"), std::string::npos) << name << ": " << what;
      }
    }
  }
}

TEST_F(SerializeTest, RejectsAstronomicalEdgeCountWithoutCrashing) {
  // num_edges = 2^62 makes num_edges * sizeof(vid_t) wrap size_t; the
  // loader must bounds-check the counts against the mapped size up front
  // instead of trusting the wrapped layout (which could agree with a tiny
  // file) and then reading 2^62 "edges" off the end of the mapping.
  const BipartiteGraph g(1, 1, {0, 1}, {0});
  const std::string path = file("huge.bmg");
  save_graph(g, path);
  std::vector<char> bytes = read_all(path);
  GraphFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.num_edges = std::int64_t{1} << 62;
  // Make the forgery as self-consistent as the wrapped arithmetic allows:
  // with col_idx/row_idx bytes wrapping to 0 the layout collapses to
  // header + row_ptr[2] + col_ptr[2] = 96 bytes.
  const std::size_t forged_size = 96;
  header.file_bytes = forged_size;
  bytes.resize(forged_size);
  // row_ptr.back() must claim 2^62 edges too, or the size checks win first.
  const eid_t big = eid_t{1} << 62;
  std::memcpy(bytes.data() + sizeof(header) + sizeof(eid_t), &big, sizeof(big));
  std::memcpy(bytes.data(), &header, sizeof(header));
  restamp_crc(bytes);
  write_all(path, bytes);
  EXPECT_THROW(
      {
        try {
          (void)load_graph_mapped(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(SerializeTest, Crc32MatchesKnownVector) {
  // The classic check vector: CRC-32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32_ieee("123456789", 9), 0xCBF43926u);
  // Chaining equals one-shot.
  EXPECT_EQ(crc32_ieee("6789", 4, crc32_ieee("12345", 5)), 0xCBF43926u);
}

// ------------------------------------------------------------------- CRC ---

/// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition, with no
/// table, against which the library's sliced implementation is checked.
std::uint32_t crc32_bitwise(const unsigned char* data, std::size_t size,
                            std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  return ~crc;
}

std::vector<unsigned char> random_bytes(std::size_t size, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng());
  return bytes;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryOffsetAndShortLength) {
  // Lengths past 2 x 16 + 15 reach the 16-byte loop more than once plus
  // every tail length; offsets 0-15 cover every load misalignment.
  const std::vector<unsigned char> buf = random_bytes(16 + 130, 7);
  for (const std::uint32_t seed : {0u, 0x9E3779B9u}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t len = 0; len <= 130; ++len) {
        const unsigned char* p = buf.data() + offset;
        ASSERT_EQ(crc32_ieee(p, len, seed), crc32_bitwise(p, len, seed))
            << "offset " << offset << ", length " << len << ", seed " << seed;
      }
    }
  }
}

TEST(Crc32, ChainingAtEverySplitPointEqualsOneShot) {
  const std::vector<unsigned char> buf = random_bytes(1024, 11);
  const std::uint32_t whole = crc32_ieee(buf.data(), buf.size());
  ASSERT_EQ(whole, crc32_bitwise(buf.data(), buf.size(), 0));
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = crc32_ieee(buf.data(), split);
    ASSERT_EQ(crc32_ieee(buf.data() + split, buf.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(Crc32, MatchesBitwiseReferenceOnAStoreSizedBuffer) {
  // The size of a spilled planted n = 2^17 instance's payload.
  const std::vector<unsigned char> buf = random_bytes(6u << 20, 13);
  EXPECT_EQ(crc32_ieee(buf.data(), buf.size()), crc32_bitwise(buf.data(), buf.size(), 0));
}

TEST(Crc32, MatchesBitwiseReferenceAtALengthNoTeamDivides) {
  // Large enough for one chunk per thread; the odd length leaves every team
  // size of 2 or more with unequal chunks, and the seed must enter the first
  // chunk only.
  const std::vector<unsigned char> buf = random_bytes((3u << 20) + 7, 17);
  for (const std::uint32_t seed : {0u, 0x9E3779B9u}) {
    const std::uint32_t whole = crc32_ieee(buf.data(), buf.size(), seed);
    EXPECT_EQ(whole, crc32_bitwise(buf.data(), buf.size(), seed)) << seed;
    const std::size_t split = buf.size() / 3 + 1;
    EXPECT_EQ(crc32_ieee(buf.data() + split, buf.size() - split,
                         crc32_ieee(buf.data(), split, seed)),
              whole)
        << seed;
  }
}

// ------------------------------------------------------ format compatibility ---

// tests/data/store_v1_planted256.bmg was spilled by `bmh_engine --graph-store`
// from `gen:planted:n=256,extra=3,seed=1` with the format-version-1 writer
// and its byte-at-a-time CRC. Every later build must keep reading it.
TEST_F(SerializeTest, LoadsTheCheckedInVersion1StoreFile) {
  const std::string golden = std::string(BMH_TEST_DATA_DIR) + "/store_v1_planted256.bmg";
  const GraphSpec spec = parse_graph_spec("gen:planted:n=256,extra=3,seed=1");
  const std::string expected_key = canonical_graph_key(spec, 1);

  std::string key;
  const BipartiteGraph loaded = load_graph_mapped(golden, &key);
  EXPECT_EQ(key, expected_key);
  const BipartiteGraph fresh = build_graph(spec, 1);
  EXPECT_EQ(to_vector(loaded.row_ptr()), to_vector(fresh.row_ptr()));
  EXPECT_EQ(to_vector(loaded.col_idx()), to_vector(fresh.col_idx()));
  EXPECT_EQ(to_vector(loaded.col_ptr()), to_vector(fresh.col_ptr()));
  EXPECT_EQ(to_vector(loaded.row_idx()), to_vector(fresh.row_idx()));

  std::vector<char> bytes = read_all(golden);
  ASSERT_GT(bytes.size(), sizeof(GraphFileHeader));
  GraphFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  EXPECT_EQ(header.version, kGraphFileVersion);
  EXPECT_EQ(crc32_ieee(bytes.data() + sizeof(header), bytes.size() - sizeof(header)),
            header.payload_crc32);

  // Today's writer reproduces the file byte for byte.
  const std::string resaved = file("resaved.bmg");
  save_graph(fresh, resaved, expected_key);
  EXPECT_EQ(read_all(resaved), bytes);

  // One flipped payload bit is still caught.
  bytes[bytes.size() / 2] ^= 0x01;
  const std::string flipped = file("flipped.bmg");
  write_all(flipped, bytes);
  EXPECT_THROW(
      {
        try {
          (void)load_graph_mapped(flipped);
        } catch (const GraphFileError& e) {
          EXPECT_NE(std::string(e.what()).find("payload CRC mismatch"), std::string::npos)
              << e.what();
          throw;
        }
      },
      GraphFileError);
}

} // namespace
} // namespace bmh
