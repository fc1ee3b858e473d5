/// \file test_graph_store.cpp
/// \brief Tests for the persistent graph tier: GraphStore spill/load round
/// trips, corruption and key-collision handling (a bad file is a recorded
/// error or a miss, never a served graph), the GraphCache two-tier flow — a
/// fresh cache over a warm directory serves from disk instead of building —
/// restart-warm batch byte-parity through EngineConfig::graph_store_dir, and
/// the race_discards counter's exact accounting under a 2-thread same-key
/// stress.

#include <gtest/gtest.h>

#include <barrier>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "test_helpers.hpp"

namespace bmh {
namespace {

namespace fs = std::filesystem;

/// Flips one byte in place (read-XOR-write, so the corruption can never be
/// a no-op whatever value the byte held).
void flip_byte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(offset);
  const int byte = f.get();
  ASSERT_NE(byte, EOF);
  f.seekp(offset);
  f.put(static_cast<char>(byte ^ 0x5A));
}

class GraphStoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = testing::scratch_dir("bmh_store_");
    fs::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

// --------------------------------------------------------------- the store ---

TEST_F(GraphStoreTest, SpillThenLoadRoundTrips) {
  GraphStore store(dir_);
  const GraphSpec spec = parse_graph_spec("gen:er:n=256,deg=4,seed=7");
  const BipartiteGraph g = build_graph(spec, 1);
  const std::string key = canonical_graph_key(spec, 1);

  EXPECT_EQ(store.try_load(key), nullptr);  // empty store: a miss
  EXPECT_TRUE(store.spill(key, g));
  EXPECT_TRUE(fs::exists(store.path_for(key)));

  const auto loaded = store.try_load(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(loaded->structurally_equal(g));
  EXPECT_FALSE(loaded->owns_storage());  // mmap view, not a rebuild

  // Write-once: a second spill of the same key is a skip, not a rewrite.
  EXPECT_TRUE(store.spill(key, g));
  const GraphStore::Stats stats = store.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.spills, 1u);
  EXPECT_EQ(stats.spill_skips, 1u);
  EXPECT_EQ(stats.io_errors, 0u);
  EXPECT_EQ(stats.content_errors, 0u);
}

TEST_F(GraphStoreTest, StoreSurvivesReopenLikeAProcessRestart) {
  const BipartiteGraph g = build_graph(parse_graph_spec("gen:mesh:nx=16"), 1);
  {
    GraphStore store(dir_);
    ASSERT_TRUE(store.spill("mesh-key", g));
  }
  GraphStore reopened(dir_);  // fresh object, same directory
  const auto loaded = reopened.try_load("mesh-key");
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(loaded->structurally_equal(g));
}

TEST_F(GraphStoreTest, CorruptFileIsAnErrorNeverServed) {
  GraphStore store(dir_);
  const BipartiteGraph g = build_graph(parse_graph_spec("gen:er:n=128,deg=4"), 9);
  ASSERT_TRUE(store.spill("victim", g));
  const std::string path = store.path_for("victim");
  flip_byte(path, static_cast<std::streamoff>(fs::file_size(path) / 2));
  EXPECT_EQ(store.try_load("victim"), nullptr);
  const GraphStore::Stats stats = store.stats();
  EXPECT_EQ(stats.hits, 0u);
  // A corrupt file is a *content* error — it must never feed the I/O streak
  // that trips the circuit breaker (the medium is fine, one file is bad).
  EXPECT_EQ(stats.content_errors, 1u);
  EXPECT_EQ(stats.io_errors, 0u);
  EXPECT_EQ(stats.errors_total(), 1u);
  // The rejection names the offending file.
  EXPECT_NE(store.last_error().find(path), std::string::npos) << store.last_error();
  // Self-heal: the rejected file was unlinked, so the key's slot is not
  // poisoned forever — the next spill rewrites it and loads succeed again.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(store.stats().healed, 1u);
  EXPECT_TRUE(store.spill("victim", g));
  EXPECT_EQ(store.stats().spill_skips, 0u);  // a real rewrite, not a skip
  const auto healed = store.try_load("victim");
  ASSERT_NE(healed, nullptr);
  EXPECT_TRUE(healed->structurally_equal(g));
}

TEST_F(GraphStoreTest, DuplicateEdgeForgeryIsAContentErrorAndHeals) {
  // A CRC-valid file whose two orientations are each other's transpose and
  // keep every degree, but repeat an edge: the full 2x2 pattern rewritten
  // as rows {0, 0} and {1, 1}, with the CSC to match. Only the per-row
  // strict ordering check can tell it from a real graph.
  GraphStore store(dir_);
  const BipartiteGraph g = make_full(2);
  ASSERT_TRUE(store.spill("dup", g));
  const std::string path = store.path_for("dup");
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  GraphFileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  // Layout: row_ptr[3], col_idx[4], col_ptr[3], row_idx[4] (all 8-aligned).
  const std::size_t row_ptr_off = (sizeof(GraphFileHeader) + header.key_bytes + 7) / 8 * 8;
  const std::size_t col_idx_off = row_ptr_off + 3 * sizeof(eid_t);
  const std::size_t row_idx_off = col_idx_off + 4 * sizeof(vid_t) + 3 * sizeof(eid_t);
  const vid_t col_idx[4] = {0, 0, 1, 1};
  const vid_t row_idx[4] = {0, 0, 1, 1};
  std::memcpy(bytes.data() + col_idx_off, col_idx, sizeof(col_idx));
  std::memcpy(bytes.data() + row_idx_off, row_idx, sizeof(row_idx));
  header.payload_crc32 =
      crc32_ieee(bytes.data() + sizeof(header), bytes.size() - sizeof(header));
  std::memcpy(bytes.data(), &header, sizeof(header));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  EXPECT_EQ(store.try_load("dup"), nullptr);
  EXPECT_EQ(store.stats().content_errors, 1u);
  EXPECT_EQ(store.stats().io_errors, 0u);
  EXPECT_NE(store.last_error().find("strictly ascending"), std::string::npos)
      << store.last_error();
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(store.stats().healed, 1u);
  ASSERT_TRUE(store.spill("dup", g));
  const auto healed = store.try_load("dup");
  ASSERT_NE(healed, nullptr);
  EXPECT_TRUE(healed->structurally_equal(g));
}

TEST_F(GraphStoreTest, FilenamesUseTheCanonicalKeyHash) {
  // Documented contract: the filename is the 64-bit FNV-1a of the key text
  // — the very hash canonical_graph_key returns — so external tooling can
  // locate a key's file without linking the store.
  GraphStore store(dir_);
  const GraphSpec spec = parse_graph_spec("gen:er:n=64,deg=4,seed=2");
  std::string key;
  const std::uint64_t hash = canonical_graph_key(spec, 1, key);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  EXPECT_EQ(store.path_for(key), dir_ + "/" + hex + ".bmg");
}

TEST_F(GraphStoreTest, EmbeddedKeyMismatchDegradesToMiss) {
  GraphStore store(dir_);
  const BipartiteGraph g = build_graph(parse_graph_spec("gen:cycle:n=32"), 1);
  ASSERT_TRUE(store.spill("key-a", g));
  // Simulate a filename hash collision: key-b's slot holds key-a's file.
  fs::rename(store.path_for("key-a"), store.path_for("key-b"));
  EXPECT_EQ(store.try_load("key-b"), nullptr);
  const GraphStore::Stats stats = store.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.errors_total(), 0u);  // the file is fine, it just isn't key-b's
  EXPECT_EQ(stats.misses, 1u);
}

// ----------------------------------------------------- cache second tier ---

TEST_F(GraphStoreTest, FreshCacheServesFromWarmStoreWithoutBuilding) {
  const GraphSpec spec = parse_graph_spec("gen:er:n=512,deg=4,seed=3");

  GraphCache::Options options;
  options.store_dir = dir_;
  std::size_t file_bytes = 0;
  {
    GraphCache cold(options);
    const auto built = cold.get_or_build(spec, 1);
    ASSERT_NE(built, nullptr);
    EXPECT_TRUE(built->owns_storage());  // built from spec, write-through spilled
    const GraphCache::Stats s = cold.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.store_misses, 1u);
    EXPECT_EQ(s.store_spills, 1u);
    ASSERT_NE(cold.store(), nullptr);
    file_bytes = fs::file_size(cold.store()->path_for(
        canonical_graph_key(spec, 1)));
    EXPECT_GT(file_bytes, 0u);
  }

  // "Restart": a brand-new cache (empty memory tier) over the same dir.
  GraphCache warm(options);
  const auto loaded = warm.get_or_build(spec, 1);
  ASSERT_NE(loaded, nullptr);
  EXPECT_FALSE(loaded->owns_storage());  // mmap view — no rebuild
  EXPECT_EQ(loaded->memory_bytes(), file_bytes);
  EXPECT_TRUE(loaded->structurally_equal(build_graph(spec, 1)));
  GraphCache::Stats s = warm.stats();
  EXPECT_EQ(s.misses, 1u);       // memory tier was cold...
  EXPECT_EQ(s.store_hits, 1u);   // ...the store tier was not
  EXPECT_EQ(s.store_spills, 0u); // nothing new written

  // Second call is a pure memory hit on the mapped entry.
  const auto again = warm.get_or_build(spec, 1);
  EXPECT_EQ(again.get(), loaded.get());
  EXPECT_EQ(warm.stats().hits, 1u);
}

TEST_F(GraphStoreTest, AcquisitionHistogramsCountWhatTheirCountersCount) {
  // One latency sample per graph built on a cache miss (graph_cache
  // `build`), per file written (graph_store `spill`) and per store hit
  // (graph_store `load`).
  const auto samples = [](obs::MetricDomain& domain, const char* metric) {
    const obs::DomainSnapshot snap = domain.snapshot();
    const obs::HistogramData* hist = snap.histogram(metric);
    return hist == nullptr ? ~0ull : hist->count;
  };
  const std::vector<GraphSpec> specs = {parse_graph_spec("gen:er:n=512,deg=4,seed=3"),
                                        parse_graph_spec("gen:mesh:nx=20"),
                                        parse_graph_spec("gen:planted:n=300,seed=2")};
  GraphCache::Options options;
  options.store_dir = dir_;
  {
    GraphCache cold(options);
    for (const GraphSpec& spec : specs) (void)cold.get_or_build(spec, 1);
    (void)cold.get_or_build(specs[0], 1);  // a memory hit: no sample
    const GraphCache::Stats s = cold.stats();
    EXPECT_EQ(samples(cold.metric_domain(), "build"), s.misses - s.store_hits);
    EXPECT_EQ(samples(cold.metric_domain(), "build"), 3u);
    EXPECT_EQ(samples(cold.store()->metric_domain(), "spill"), s.store_spills);
    EXPECT_EQ(samples(cold.store()->metric_domain(), "load"), s.store_hits);
  }
  GraphCache warm(options);
  for (const GraphSpec& spec : specs) (void)warm.get_or_build(spec, 1);
  const GraphCache::Stats s = warm.stats();
  EXPECT_EQ(samples(warm.metric_domain(), "build"), 0u);
  EXPECT_EQ(samples(warm.store()->metric_domain(), "load"), s.store_hits);
  EXPECT_EQ(samples(warm.store()->metric_domain(), "load"), 3u);
  EXPECT_EQ(samples(warm.store()->metric_domain(), "spill"), s.store_spills);

  GraphCache memory_only;  // no store: every miss builds
  for (const GraphSpec& spec : specs) (void)memory_only.get_or_build(spec, 1);
  EXPECT_EQ(samples(memory_only.metric_domain(), "build"), memory_only.stats().misses);
}

TEST_F(GraphStoreTest, EvictedEntriesAreOnDiskAndReloadable) {
  const GraphSpec spec = parse_graph_spec("gen:er:n=512,deg=4");
  const std::size_t one_graph = build_graph(spec, 0).memory_bytes();

  GraphCache::Options options;
  options.shards = 1;
  options.max_bytes = 2 * one_graph + one_graph / 2;  // room for ~2
  options.store_dir = dir_;
  GraphCache cache(options);
  for (std::uint64_t s = 0; s < 5; ++s) (void)cache.get_or_build(spec, s);

  const GraphCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 3u);
  // Write-through put every build on disk regardless of eviction order.
  EXPECT_EQ(stats.store_spills, 5u);
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir_)) ++files;
  EXPECT_EQ(files, 5u);

  // An evicted instance comes back from disk, not from a rebuild.
  (void)cache.get_or_build(spec, 0);
  EXPECT_EQ(cache.stats().store_hits, 1u);
}

TEST_F(GraphStoreTest, CorruptStoreFileFallsBackToBuilding) {
  const GraphSpec spec = parse_graph_spec("gen:er:n=256,deg=4,seed=11");
  GraphCache::Options options;
  options.store_dir = dir_;
  {
    GraphCache cache(options);
    (void)cache.get_or_build(spec, 1);
  }
  // Corrupt the spilled file, then restart.
  GraphStore probe(dir_);
  const std::string path = probe.path_for(canonical_graph_key(spec, 1));
  flip_byte(path, sizeof(GraphFileHeader) + 1);
  GraphCache cache(options);
  const auto g = cache.get_or_build(spec, 1);  // must not throw, must be right
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->owns_storage());  // rebuilt, the mapped path was rejected
  EXPECT_TRUE(g->structurally_equal(build_graph(spec, 1)));
  EXPECT_EQ(cache.stats().store_errors, 1u);
}

// ------------------------------------------------ restart-warm batch parity ---

std::string run_lines(const std::vector<JobSpec>& jobs, const EngineConfig& config) {
  std::string out;
  for (const JobResult& r : testing::run_on_fresh_engine(jobs, config)) {
    out += to_json_line(r, /*include_timings=*/false);
    out += '\n';
  }
  return out;
}

TEST_F(GraphStoreTest, RestartedProcessServesByteIdenticalBatchFromWarmStore) {
  std::istringstream in(
      "input=gen:er:n=512,deg=4,seed=7 algo=two_sided iters=5\n"
      "input=gen:er:n=512,deg=4,seed=7 algo=one_sided iters=5\n"
      "input=gen:mesh:nx=24 algo=one_sided augment=1\n"
      "input=gen:er:n=512,deg=4,seed=7 algo=karp_sipser\n");
  const std::vector<JobSpec> jobs = parse_job_specs(in);

  EngineConfig plain;
  plain.seed = 42;
  plain.threads = 2;
  const std::string reference = run_lines(jobs, plain);

  // Cold run with the persistent tier: output identical, store now warm.
  EngineConfig with_store = plain;
  with_store.graph_store_dir = dir_;
  EXPECT_EQ(run_lines(jobs, with_store), reference);

  // "Restarted process": a fresh caller-owned cache (so the counters are
  // observable) whose memory tier is empty but whose store dir is warm.
  GraphCache::Options cache_options;
  cache_options.store_dir = dir_;
  GraphCache restarted(cache_options);
  EngineConfig warm = plain;
  warm.graph_cache = &restarted;
  EXPECT_EQ(run_lines(jobs, warm), reference);
  const GraphCache::Stats stats = restarted.stats();
  EXPECT_GT(stats.store_hits, 0u);   // served from disk...
  EXPECT_EQ(stats.store_spills, 0u); // ...built nothing new
  EXPECT_EQ(stats.store_errors, 0u);
}

// -------------------------------------------------- race_discards counter ---

TEST(GraphCacheRace, TwoThreadSameKeyStressCountsDiscardsExactly) {
  // Every round releases two threads simultaneously onto the same cold key.
  // Each round therefore resolves as either (miss, miss) with the loser's
  // copy discarded — one race_discard — or (miss, hit) when one thread got
  // there first. Whatever the interleaving, the counters must satisfy the
  // exact accounting below; any drift means discards are miscounted.
  constexpr int kRounds = 200;
  GraphCache cache;
  const GraphSpec spec = parse_graph_spec("gen:er:n=64,deg=4");

  std::barrier<> gate(2);
  std::vector<std::thread> pool;
  for (int t = 0; t < 2; ++t) {
    pool.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        gate.arrive_and_wait();
        // Seed = round: a fresh cold key each round, same key across threads.
        const auto g = cache.get_or_build(spec, static_cast<std::uint64_t>(round));
        ASSERT_NE(g, nullptr);
        EXPECT_EQ(g->num_rows(), 64);
      }
    });
  }
  for (auto& t : pool) t.join();

  const GraphCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 2u * kRounds);
  EXPECT_EQ(stats.misses, kRounds + stats.race_discards);
  EXPECT_EQ(stats.hits, kRounds - stats.race_discards);
  EXPECT_EQ(stats.entries, static_cast<std::size_t>(kRounds));
  EXPECT_LE(stats.race_discards, static_cast<std::uint64_t>(kRounds));
}

} // namespace
} // namespace bmh
