/// \file test_graph_source.cpp
/// \brief Tests for the GraphSource abstraction — scheme table
/// introspection, `mm:` content-hash keying (same bytes ⇒ same canonical
/// key across copies and renames, new bytes ⇒ new key), seed independence,
/// build parity with the mmio reader, and the headline serving property:
/// an `mm:` job re-served by a fresh engine over the same GraphStore is a
/// pure store hit with zero cold builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "test_helpers.hpp"

namespace bmh {
namespace {

using namespace testing;

namespace fs = std::filesystem;

std::string fixture(const char* name) {
  return std::string(BMH_TEST_DATA_DIR) + "/" + name;
}

/// Writes `text` to a fresh file under a per-test temp dir.
class TempDir {
public:
  explicit TempDir(const char* tag)
      : dir_(fs::temp_directory_path() /
             (std::string("bmh_graph_source_") + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  [[nodiscard]] std::string write(const char* name, const std::string& text) const {
    const fs::path p = dir_ / name;
    std::ofstream out(p);
    out << text;
    return p.string();
  }
  [[nodiscard]] fs::path path() const { return dir_; }

private:
  fs::path dir_;
};

const char* kTinyMtx =
    "%%MatrixMarket matrix coordinate pattern general\n"
    "3 3 4\n"
    "1 1\n"
    "2 2\n"
    "3 3\n"
    "1 3\n";

TEST(GraphSourceTable, SchemesAreSortedAndComplete) {
  const std::vector<std::string> schemes = registered_graph_source_schemes();
  EXPECT_TRUE(std::is_sorted(schemes.begin(), schemes.end()));
  for (const char* s : {"gen", "mm", "mtx", "suite"})
    EXPECT_NE(std::find(schemes.begin(), schemes.end(), s), schemes.end()) << s;
}

TEST(GraphSourceTable, UnknownSchemeNamesTheKnownOnes) {
  try {
    (void)parse_graph_spec("nope:er:n=4");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "graph spec 'nope:er:n=4': unknown scheme 'nope' (gen|mm|mtx|suite)");
  }
}

TEST(MmSource, ParsesPathForm) {
  const GraphSpec spec = parse_graph_spec("mm:path=/tmp/some file.mtx");
  EXPECT_EQ(spec.scheme, "mm");
  EXPECT_EQ(spec.name, "/tmp/some file.mtx");
  EXPECT_THROW((void)parse_graph_spec("mm:/tmp/x.mtx"), std::invalid_argument);
  EXPECT_THROW((void)parse_graph_spec("mm:path="), std::invalid_argument);
}

TEST(MmSource, KeyIsContentHashedAndSeedIndependent) {
  const TempDir tmp("key");
  const std::string path = tmp.write("a.mtx", kTinyMtx);
  const GraphSpec spec = parse_graph_spec("mm:path=" + path);

  const std::string key = canonical_graph_key(spec, 1);
  ASSERT_EQ(key.size(), 3 + 16u);  // "mm:" + 16 hex digits
  EXPECT_EQ(key.rfind("mm:", 0), 0u);
  for (std::size_t i = 3; i < key.size(); ++i)
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(key[i]))) << key;

  // The instance never depends on the job seed.
  EXPECT_EQ(canonical_graph_key(spec, 2), key);
}

TEST(MmSource, SameContentSameKeyAcrossCopiesAndRenames) {
  const TempDir tmp("copy");
  const std::string a = tmp.write("a.mtx", kTinyMtx);
  const std::string b = tmp.write("subdir_free_copy.mtx", kTinyMtx);
  fs::create_directories(tmp.path() / "nested");
  const std::string c = (tmp.path() / "nested" / "renamed.mtx").string();
  fs::copy_file(a, c);

  const std::string key_a = canonical_graph_key(parse_graph_spec("mm:path=" + a), 1);
  EXPECT_EQ(canonical_graph_key(parse_graph_spec("mm:path=" + b), 1), key_a);
  EXPECT_EQ(canonical_graph_key(parse_graph_spec("mm:path=" + c), 1), key_a);
}

TEST(MmSource, ContentEditChangesKey) {
  const TempDir tmp("edit");
  const std::string path = tmp.write("a.mtx", kTinyMtx);
  const GraphSpec spec = parse_graph_spec("mm:path=" + path);
  const std::string before = canonical_graph_key(spec, 1);

  // Different bytes and a different size, so the (mtime, size) memo can
  // never confuse the two versions even on coarse-mtime filesystems.
  (void)tmp.write("a.mtx",
                  "%%MatrixMarket matrix coordinate pattern general\n"
                  "3 3 3\n"
                  "1 1\n"
                  "2 2\n"
                  "3 3\n");
  const std::string after = canonical_graph_key(spec, 1);
  EXPECT_NE(after, before);
  EXPECT_EQ(after.rfind("mm:", 0), 0u);
}

TEST(MmSource, BuildMatchesMmioReader) {
  const std::string path = fixture("rect_general.mtx");
  const BipartiteGraph direct = read_matrix_market_file(path);
  const BipartiteGraph via_source =
      build_graph(parse_graph_spec("mm:path=" + path), 7);
  EXPECT_TRUE(structurally_equal(direct, via_source));
  EXPECT_EQ(via_source.num_rows(), 4);
  EXPECT_EQ(via_source.num_cols(), 6);
}

TEST(MmSource, MissingFileThrowsOnResolveAndBuild) {
  const GraphSpec spec = parse_graph_spec("mm:path=/nonexistent/bmh.mtx");
  EXPECT_THROW((void)canonical_graph_key(spec, 1), std::runtime_error);
  EXPECT_THROW((void)build_graph(spec, 1), std::runtime_error);
}

TEST(MmSource, CacheServesSameContentAcrossPaths) {
  const TempDir tmp("cache");
  const std::string a = tmp.write("a.mtx", kTinyMtx);
  const std::string b = tmp.write("b.mtx", kTinyMtx);

  GraphCache cache;
  const auto ga = cache.get_or_build(parse_graph_spec("mm:path=" + a), 1);
  const auto gb = cache.get_or_build(parse_graph_spec("mm:path=" + b), 2);
  EXPECT_EQ(ga.get(), gb.get());  // one entry, shared across both paths
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(MmSource, EngineRestartIsPureStoreHitWithZeroColdBuilds) {
  const TempDir tmp("store");
  const std::string store_dir = (tmp.path() / "store").string();
  std::vector<JobSpec> jobs;
  jobs.push_back(parse_job_spec_line("name=mm input=mm:path=" +
                                     fixture("rect_general.mtx") +
                                     " algo=hopcroft_karp"));

  std::string first_line;
  {
    EngineConfig config;
    config.threads = 1;
    config.graph_store_dir = store_dir;
    Engine engine(config);
    const std::vector<JobResult> results = engine.run_collect(jobs);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    first_line = to_json_line(results[0], /*include_timings=*/false);
    EXPECT_EQ(engine.stats().cold_builds, 1u);  // built once, spilled
  }

  // A fresh engine = a restarted process: empty memory cache, same store.
  {
    EngineConfig config;
    config.threads = 1;
    config.graph_store_dir = store_dir;
    Engine engine(config);
    const std::vector<JobResult> results = engine.run_collect(jobs);
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(to_json_line(results[0], /*include_timings=*/false), first_line);
    const Engine::Stats stats = engine.stats();
    EXPECT_EQ(stats.cold_builds, 0u);  // mmap-loaded, never rebuilt
    EXPECT_EQ(stats.cache.store_hits, 1u);
    EXPECT_EQ(stats.cache.misses, 1u);
  }
}

TEST(GenSource, LegacyKeysUnchanged) {
  // The refactor moved resolution behind GraphSource; the canonical text —
  // the GraphStore's on-disk naming — must not have moved with it.
  EXPECT_EQ(canonical_graph_key(parse_graph_spec("gen:er:n=4096"), 3),
            "gen:er:cols=4096,deg=4,n=4096#seed=3");
  EXPECT_EQ(canonical_graph_key(parse_graph_spec("gen:mesh:nx=8,ny=4"), 9),
            "gen:mesh:nx=8,ny=4");
  EXPECT_EQ(canonical_graph_key(parse_graph_spec("mtx:/tmp/a.mtx"), 5),
            "mtx:/tmp/a.mtx");
  EXPECT_EQ(canonical_graph_key(parse_graph_spec("suite:cage15_like:scale=0.5"), 2),
            "suite:cage15_like:scale=0.5#seed=2");
}

} // namespace
} // namespace bmh
