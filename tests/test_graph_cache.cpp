/// \file test_graph_cache.cpp
/// \brief Tests for the sharded content-addressed graph cache and the
/// canonical spec keys behind it: key equivalence under default resolution
/// and parameter order, the seed precedence rules, hit/miss/LRU accounting,
/// concurrent lookup/insert (the sanitizer CI job runs this suite under
/// ASan+UBSan, exercising the sharded locks), batch-output parity with
/// the cache on vs off, and the sprank and scaling memos resident graphs
/// carry.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <sstream>
#include <thread>

#include "test_helpers.hpp"

namespace bmh {
namespace {

std::uint64_t key_hash(const std::string& spec, std::uint64_t seed, std::string& text) {
  return canonical_graph_key(parse_graph_spec(spec), seed, text);
}

// ------------------------------------------------------- canonical keys ---

TEST(CanonicalKey, ResolvesDefaultsAndSortsParams) {
  // Textually different, semantically identical: one canonical form.
  const std::string canonical = canonical_graph_key(parse_graph_spec("gen:er:n=4096"), 7);
  EXPECT_EQ(canonical, "gen:er:cols=4096,deg=4,n=4096#seed=7");
  EXPECT_EQ(canonical_graph_key(parse_graph_spec("gen:er:deg=4,n=4096"), 7), canonical);
  EXPECT_EQ(canonical_graph_key(parse_graph_spec("gen:er:cols=4096,n=4096"), 7),
            canonical);
  // The mesh `n` shorthand resolves away: nx = sqrt(n), ny = nx.
  EXPECT_EQ(canonical_graph_key(parse_graph_spec("gen:mesh:n=4096"), 1),
            canonical_graph_key(parse_graph_spec("gen:mesh:nx=64,ny=64"), 2));
  // Clamps apply before keying (er floors n at 2).
  EXPECT_EQ(canonical_graph_key(parse_graph_spec("gen:er:n=1"), 3),
            canonical_graph_key(parse_graph_spec("gen:er:n=2"), 3));
  // Unknown generators fail like build_graph.
  EXPECT_THROW((void)canonical_graph_key(parse_graph_spec("gen:nope:n=4"), 1),
               std::invalid_argument);
}

TEST(CanonicalKey, SeedPrecedenceMatchesBuildGraph) {
  std::string a, b;
  // Seeded generator: the job seed differentiates instances...
  EXPECT_NE(key_hash("gen:er:n=256", 5, a), key_hash("gen:er:n=256", 6, b));
  EXPECT_NE(a, b);
  // ...unless the spec pins one, which wins over any job seed.
  EXPECT_EQ(canonical_graph_key(parse_graph_spec("gen:er:n=256,seed=5"), 99),
            canonical_graph_key(parse_graph_spec("gen:er:n=256"), 5));
  // Deterministic sources ignore the seed entirely.
  for (const char* spec : {"gen:mesh:nx=8", "gen:cycle:n=64", "gen:full:n=8",
                           "gen:adversarial:n=16,k=2", "mtx:/some/path.mtx"}) {
    EXPECT_EQ(canonical_graph_key(parse_graph_spec(spec), 1),
              canonical_graph_key(parse_graph_spec(spec), 2))
        << spec;
  }
  // Suite instances are seeded.
  EXPECT_NE(canonical_graph_key(parse_graph_spec("suite:cage15_like:scale=0.02"), 1),
            canonical_graph_key(parse_graph_spec("suite:cage15_like:scale=0.02"), 2));
}

TEST(CanonicalKey, EqualKeysDenoteEqualGraphs) {
  const std::pair<const char*, const char*> equivalent[] = {
      {"gen:er:n=256", "gen:er:deg=4,cols=256,n=256"},
      {"gen:mesh:n=256", "gen:mesh:nx=16"},
      {"gen:planted:n=128", "gen:planted:extra=3,n=128"},
  };
  for (const auto& [lhs, rhs] : equivalent) {
    const GraphSpec sl = parse_graph_spec(lhs);
    const GraphSpec sr = parse_graph_spec(rhs);
    ASSERT_EQ(canonical_graph_key(sl, 11), canonical_graph_key(sr, 11)) << lhs;
    EXPECT_TRUE(build_graph(sl, 11).structurally_equal(build_graph(sr, 11))) << lhs;
  }
}

// ----------------------------------------------------------- the cache ---

TEST(GraphCache, SharesEntriesAndCountsHits) {
  GraphCache cache;
  const GraphSpec spec = parse_graph_spec("gen:er:n=256,deg=4");
  const auto a = cache.get_or_build(spec, 5);
  const auto b = cache.get_or_build(spec, 5);
  EXPECT_EQ(a.get(), b.get());  // one shared instance, not a rebuild
  // A semantically identical spelling hits the same entry.
  const auto c = cache.get_or_build(parse_graph_spec("gen:er:deg=4,n=256"), 5);
  EXPECT_EQ(a.get(), c.get());
  // A different effective seed is a different instance.
  const auto d = cache.get_or_build(spec, 6);
  EXPECT_NE(a.get(), d.get());

  const GraphCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(GraphCache, PerJobSeedDerivationSharesOnlyPinnedInstances) {
  GraphCache cache;
  // Unpinned seeded spec under derived per-job seeds: every job is its own
  // instance (the determinism contract), so no sharing...
  const GraphSpec unpinned = parse_graph_spec("gen:er:n=128,deg=4");
  const auto a = cache.get_or_build(unpinned, derive_job_seed(1, 0));
  const auto b = cache.get_or_build(unpinned, derive_job_seed(1, 1));
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().hits, 0u);
  // ...while a pinned spec shares one instance across all derived seeds.
  const GraphSpec pinned = parse_graph_spec("gen:er:n=128,deg=4,seed=9");
  const auto c = cache.get_or_build(pinned, derive_job_seed(1, 0));
  const auto d = cache.get_or_build(pinned, derive_job_seed(1, 1));
  EXPECT_EQ(c.get(), d.get());
  EXPECT_TRUE(c->structurally_equal(build_graph(pinned, 12345)));
}

TEST(GraphCache, ExternalCacheServesIdenticalBatchReruns) {
  // Against a caller-owned cache, unpinned jobs ARE retained: re-running the
  // same batch with the same batch seed re-derives the same per-index seeds,
  // so the second run is all hits (pinned, unpinned and seed-blind alike).
  std::istringstream in(
      "input=gen:er:n=256,deg=4 algo=greedy quality=0\n"
      "input=gen:er:n=256,deg=4 algo=greedy quality=0\n"
      "input=gen:er:n=256,deg=4,seed=7 algo=greedy quality=0\n"
      "input=gen:mesh:nx=12 algo=greedy quality=0\n");
  const std::vector<JobSpec> jobs = parse_job_specs(in);
  GraphCache cache;
  EngineConfig config;
  config.seed = 5;
  config.graph_cache = &cache;
  const std::vector<JobResult> first = testing::run_on_fresh_engine(jobs, config);
  const std::uint64_t misses_after_first = cache.stats().misses;
  // Four distinct keys cold: jobs 0/1 derive different per-index seeds,
  // job 2 is pinned, job 3 is seed-blind.
  EXPECT_EQ(misses_after_first, 4u);
  const std::vector<JobResult> second = testing::run_on_fresh_engine(jobs, config);
  const GraphCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, misses_after_first);  // rerun is 100% hits
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(jobs.size()));
  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(to_json_line(second[i], false), to_json_line(first[i], false));
}

TEST(GraphCache, LruEvictsUnderTinyByteBudget) {
  const GraphSpec spec = parse_graph_spec("gen:er:n=512,deg=4,seed=1");
  const std::size_t one_graph = build_graph(spec, 1).memory_bytes();

  GraphCache::Options options;
  options.shards = 1;  // one shard: eviction order is the global LRU order
  options.max_bytes = 3 * one_graph + one_graph / 2;  // room for ~3 er graphs
  GraphCache cache(options);

  // Touch 5 distinct instances; the budget retains only the last ~3.
  for (std::uint64_t s = 0; s < 5; ++s)
    (void)cache.get_or_build(parse_graph_spec("gen:er:n=512,deg=4"), s);
  GraphCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_GE(stats.evictions, 2u);
  EXPECT_LE(stats.bytes, options.max_bytes);
  EXPECT_EQ(stats.entries + stats.evictions, 5u);

  // The most recently used instance survived; the oldest was evicted.
  (void)cache.get_or_build(parse_graph_spec("gen:er:n=512,deg=4"), 4);
  EXPECT_EQ(cache.stats().hits, stats.hits + 1);
  (void)cache.get_or_build(parse_graph_spec("gen:er:n=512,deg=4"), 0);
  EXPECT_EQ(cache.stats().misses, stats.misses + 1);

  cache.clear();
  stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(GraphCache, OversizedGraphIsServedButNotCached) {
  GraphCache::Options options;
  options.shards = 1;
  options.max_bytes = 64;  // smaller than any real graph
  GraphCache cache(options);
  const GraphSpec spec = parse_graph_spec("gen:cycle:n=64");
  const auto g = cache.get_or_build(spec, 1);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->num_rows(), 64);
  const GraphCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.uncacheable, 1u);
  // Still correct (rebuilt) on the next request.
  EXPECT_TRUE(cache.get_or_build(spec, 2)->structurally_equal(*g));
}

TEST(GraphCache, BuildFailuresPropagateAndAreNotCached) {
  GraphCache cache;
  const GraphSpec missing = parse_graph_spec("mtx:/nonexistent/file.mtx");
  EXPECT_THROW((void)cache.get_or_build(missing, 1), std::exception);
  EXPECT_THROW((void)cache.get_or_build(missing, 1), std::exception);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// The sanitizer CI job runs this under ASan+UBSan: 8+ threads hammering a
// deliberately tiny cache so lookups, inserts, races on the same cold key
// and LRU evictions all interleave across the sharded locks.
TEST(GraphCacheStress, ConcurrentLookupInsertEvict) {
  GraphCache::Options options;
  options.shards = 4;
  options.max_bytes = 512 * 1024;  // tiny: forces steady eviction churn
  GraphCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kIterations = 300;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        // 16 distinct instances, visited in thread-skewed order so several
        // threads race on the same key while others hit other shards.
        const std::uint64_t instance = static_cast<std::uint64_t>((i + t) % 16);
        const GraphSpec spec =
            parse_graph_spec("gen:er:n=" + std::to_string(128 + 32 * (instance % 4)) +
                             ",deg=4");
        const auto g = cache.get_or_build(spec, instance);
        if (g == nullptr || g->num_rows() != 128 + 32 * static_cast<int>(instance % 4))
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const GraphCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kIterations);
  EXPECT_LE(stats.bytes, options.max_bytes);
}

// ---------------------------------------------------------- sprank memo ---

TEST(SprankMemo, FreshGraphIsUnknownAndCopiesCarryTheMemo) {
  const BipartiteGraph fresh = make_cycle(6);
  EXPECT_FALSE(fresh.known_sprank().has_value());
  EXPECT_FALSE(BipartiteGraph().known_sprank().has_value());

  BipartiteGraph g = make_cycle(6);
  g.remember_sprank(6);
  ASSERT_EQ(g.known_sprank(), std::optional<vid_t>(6));
  const BipartiteGraph copy(g);
  EXPECT_EQ(copy.known_sprank(), std::optional<vid_t>(6));
  BipartiteGraph assigned = make_full(3);
  assigned.remember_sprank(3);
  assigned = g;  // the target's own memo described other arrays
  EXPECT_EQ(assigned.known_sprank(), std::optional<vid_t>(6));

  // A move carries the memo with the arrays and leaves the (now empty)
  // source unknown.
  BipartiteGraph moved(std::move(assigned));
  EXPECT_EQ(moved.known_sprank(), std::optional<vid_t>(6));
  EXPECT_FALSE(assigned.known_sprank().has_value());  // NOLINT(bugprone-use-after-move)
  BipartiteGraph move_target = make_full(3);
  move_target.remember_sprank(3);
  move_target = std::move(moved);
  EXPECT_EQ(move_target.known_sprank(), std::optional<vid_t>(6));
  EXPECT_FALSE(moved.known_sprank().has_value());  // NOLINT(bugprone-use-after-move)
}

TEST(SprankMemo, PooledRebuildForgetsTheOldRank) {
  // One graph object rebuilt in place, the way a Workspace-pooled graph is:
  // the second instance has a different sprank, so a memo that survived
  // the rebuild would serve the wrong denominator.
  GraphBuilder builder;
  BipartiteGraph pooled;
  Workspace ws;
  PipelineConfig config;
  config.algorithm = "sprank";
  PipelineResult out;

  builder.reset(4, 4);
  for (vid_t i = 0; i < 4; ++i) builder.add_edge(i, i);  // sprank 4
  builder.build_into(pooled);
  run_analyze_pipeline_ws(pooled, config, ws, out);
  ASSERT_EQ(out.sprank, 4);
  EXPECT_EQ(out.sprank_source, SprankSource::kSolved);
  run_analyze_pipeline_ws(pooled, config, ws, out);
  EXPECT_EQ(out.sprank_source, SprankSource::kMemo);

  builder.reset(4, 4);
  for (vid_t i = 0; i < 4; ++i) builder.add_edge(i, 0);  // sprank 1
  builder.build_into(pooled);
  EXPECT_FALSE(pooled.known_sprank().has_value());
  run_analyze_pipeline_ws(pooled, config, ws, out);
  EXPECT_EQ(out.sprank, sprank_ws(pooled, ws));
  EXPECT_EQ(out.sprank, 1);
  EXPECT_EQ(out.sprank_source, SprankSource::kSolved);
}

// Several threads reach one cold shared graph together (the engine's
// first-touch race): each may solve, all must agree, and the memo ends up
// holding that value. The TSan CI job runs this suite.
TEST(SprankMemoStress, ConcurrentFirstTouchAgrees) {
  const auto g = std::make_shared<const BipartiteGraph>(
      build_graph(parse_graph_spec("gen:er:n=2048,deg=3,seed=4"), 1));
  const vid_t expected = sprank(*g);
  ASSERT_FALSE(g->known_sprank().has_value());

  constexpr int kThreads = 4;
  PipelineConfig config;
  config.algorithm = "two_sided";
  config.options.threads = 1;
  std::atomic<int> ready{0};
  std::atomic<int> solves{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      Workspace ws;
      PipelineResult out;
      ready.fetch_add(1, std::memory_order_relaxed);
      while (ready.load(std::memory_order_relaxed) < kThreads) std::this_thread::yield();
      run_pipeline_ws(*g, config, ws, out);
      if (out.sprank != expected) wrong.fetch_add(1, std::memory_order_relaxed);
      if (out.sprank_source == SprankSource::kSolved)
        solves.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GE(solves.load(), 1);
  EXPECT_LE(solves.load(), kThreads);
  EXPECT_EQ(g->known_sprank(), std::optional<vid_t>(expected));
}

// --------------------------------------------------------- scaling memo ---

/// The pipeline's memo key for `config`.
ScalingKey key_of(const PipelineConfig& config) {
  return {static_cast<int>(config.scaling), config.scaling_iterations,
          config.scaling_tolerance};
}

/// A fresh, unmemoized solve of `config`'s scaling on `g` at `threads`
/// OpenMP threads.
ScalingResult fresh_scaling(const BipartiteGraph& g, const PipelineConfig& config,
                            int threads) {
  const ThreadCountGuard guard(threads);
  const ScalingOptions opts{config.scaling_iterations, config.scaling_tolerance};
  return config.scaling == ScalingMethod::kRuiz ? scale_ruiz(g, opts)
                                                : scale_sinkhorn_knopp(g, opts);
}

void expect_bit_identical(const ScalingResult& a, const ScalingResult& b,
                          const std::string& where) {
  EXPECT_EQ(testing::bit_fingerprint(a.dr), testing::bit_fingerprint(b.dr)) << where;
  EXPECT_EQ(testing::bit_fingerprint(a.dc), testing::bit_fingerprint(b.dc)) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.error), std::bit_cast<std::uint64_t>(b.error))
      << where;
  EXPECT_EQ(a.iterations, b.iterations) << where;
  EXPECT_EQ(a.converged, b.converged) << where;
}

TEST(ScalingMemo, HitIsBitIdenticalToFreshSolvesAtAnyThreadCount) {
  // SK's only reduction is a max and every row/column sum is serial per
  // vertex, and so for Ruiz: the multipliers do not depend on the thread
  // count, so one remembered entry may serve jobs of any thread budget.
  const BipartiteGraph base = make_power_law(3000, 6.0, 1.8, 21);
  struct Case {
    ScalingMethod method;
    int iterations;
    double tolerance;
  };
  for (const Case c : {Case{ScalingMethod::kSinkhornKnopp, 5, 0.0},
                       Case{ScalingMethod::kSinkhornKnopp, 40, 1e-3},
                       Case{ScalingMethod::kRuiz, 5, 0.0},
                       Case{ScalingMethod::kRuiz, 30, 1e-2}}) {
    for (const int publisher : {1, 2, 4}) {
      const BipartiteGraph g(base);  // a copy starts without an entry
      PipelineConfig config;
      config.algorithm = "one_sided";
      config.compute_quality = false;
      config.scaling = c.method;
      config.scaling_iterations = c.iterations;
      config.scaling_tolerance = c.tolerance;
      config.options.threads = publisher;
      Workspace ws;
      PipelineResult out;
      run_pipeline_ws(g, config, ws, out);
      run_pipeline_ws(g, config, ws, out);  // second use: publishes
      const ScalingResult* known = g.known_scaling(key_of(config));
      const std::string where = std::string(to_string(c.method)) + " iters " +
                                std::to_string(c.iterations) + ", published at " +
                                std::to_string(publisher) + " threads";
      ASSERT_NE(known, nullptr) << where;
      for (const int threads : {1, 2, 4})
        expect_bit_identical(*known, fresh_scaling(g, config, threads),
                             where + ", fresh at " + std::to_string(threads));
      // A hit reports the entry's error and iterations, and samples from it
      // (one_sided's matching is a function of seed and scaling only at
      // one thread).
      const Matching published = out.matching;
      run_pipeline_ws(g, config, ws, out);
      EXPECT_EQ(out.scaling_source, ScalingSource::kMemo) << where;
      EXPECT_EQ(out.scaling_iterations, known->iterations) << where;
      EXPECT_EQ(out.scaling_error, known->error) << where;
      if (publisher == 1) {
        EXPECT_EQ(out.matching.row_match, published.row_match) << where;
      }
    }
  }
}

TEST(ScalingMemo, PublishesOnTheSecondUseAndASecondKeyNeverOverwrites) {
  const BipartiteGraph g = make_erdos_renyi(800, 800, 4000, 3);
  Workspace ws;
  PipelineResult out;
  PipelineConfig sk;
  sk.algorithm = "two_sided";
  sk.compute_quality = false;
  PipelineConfig ruiz = sk;
  ruiz.scaling = ScalingMethod::kRuiz;
  PipelineConfig more = sk;
  more.scaling_iterations = sk.scaling_iterations + 1;

  run_pipeline_ws(g, sk, ws, out);  // first use: recorded, not published
  EXPECT_EQ(out.scaling_source, ScalingSource::kSolved);
  EXPECT_EQ(g.known_scaling(key_of(sk)), nullptr);
  const std::size_t plain_bytes = g.memory_bytes();
  run_pipeline_ws(g, sk, ws, out);  // second use: solved, then published
  EXPECT_EQ(out.scaling_source, ScalingSource::kSolved);
  const ScalingResult* entry = g.known_scaling(key_of(sk));
  ASSERT_NE(entry, nullptr);
  EXPECT_GE(g.memory_bytes(), plain_bytes + (800 + 800) * sizeof(double));
  run_pipeline_ws(g, sk, ws, out);
  EXPECT_EQ(out.scaling_source, ScalingSource::kMemo);

  // Other keys — another method, another iteration count — compute as
  // before, even on their own second use, and leave the entry in place.
  for (const PipelineConfig* other : {&ruiz, &more, &ruiz, &more}) {
    run_pipeline_ws(g, *other, ws, out);
    EXPECT_EQ(out.scaling_source, ScalingSource::kSolved);
    EXPECT_EQ(g.known_scaling(key_of(*other)), nullptr);
  }
  EXPECT_EQ(g.known_scaling(key_of(sk)), entry);

  // Algorithms that ignore the scaling neither solve nor read it.
  PipelineConfig ks = sk;
  ks.algorithm = "karp_sipser";
  run_pipeline_ws(g, ks, ws, out);
  EXPECT_EQ(out.scaling_source, ScalingSource::kNone);
  EXPECT_EQ(out.scaling_iterations, 0);
}

TEST(ScalingMemo, AssignCsrClearsMovesCarryCopiesDrop) {
  BipartiteGraph g = make_erdos_renyi(300, 300, 1500, 8);
  PipelineConfig config;
  config.algorithm = "k_out";
  config.compute_quality = false;
  Workspace ws;
  PipelineResult out;
  run_pipeline_ws(g, config, ws, out);
  run_pipeline_ws(g, config, ws, out);
  const ScalingResult* entry = g.known_scaling(key_of(config));
  ASSERT_NE(entry, nullptr);

  // Copies drop the entry: it belongs to one graph object, and the copy
  // earns its own on its second use.
  const BipartiteGraph copy(g);
  EXPECT_EQ(copy.known_scaling(key_of(config)), nullptr);
  EXPECT_LT(copy.memory_bytes(), g.memory_bytes());
  BipartiteGraph assigned = make_cycle(4);
  assigned = g;
  EXPECT_EQ(assigned.known_scaling(key_of(config)), nullptr);

  // Moves carry it, the same object, and leave the source without one.
  BipartiteGraph moved(std::move(g));
  EXPECT_EQ(moved.known_scaling(key_of(config)), entry);
  EXPECT_EQ(g.known_scaling(key_of(config)), nullptr);  // NOLINT(bugprone-use-after-move)
  BipartiteGraph move_target = make_cycle(4);
  move_target = std::move(moved);
  EXPECT_EQ(move_target.known_scaling(key_of(config)), entry);

  // New arrays, no entry and no record of the old key: the rebuilt graph
  // needs two uses of its own before it publishes.
  const BipartiteGraph other = make_erdos_renyi(300, 300, 1800, 9);
  move_target.assign_csr(other.num_rows(), other.num_cols(), other.row_ptr(),
                         other.col_idx());
  EXPECT_EQ(move_target.known_scaling(key_of(config)), nullptr);
  run_pipeline_ws(move_target, config, ws, out);
  EXPECT_EQ(move_target.known_scaling(key_of(config)), nullptr);
  run_pipeline_ws(move_target, config, ws, out);
  const ScalingResult* rebuilt = move_target.known_scaling(key_of(config));
  ASSERT_NE(rebuilt, nullptr);
  expect_bit_identical(*rebuilt, fresh_scaling(other, config, 1), "after assign_csr");
}

// Several threads make a key's second use at once: each solves, exactly
// one publishes, and the others keep and read their own multipliers. The
// TSan CI job runs this suite.
TEST(ScalingMemoStress, ConcurrentSecondUsesPublishOneEntry) {
  const auto g = std::make_shared<const BipartiteGraph>(
      build_graph(parse_graph_spec("gen:er:n=2048,deg=4,seed=2"), 1));
  PipelineConfig config;
  config.algorithm = "one_sided";
  config.compute_quality = false;
  config.options.threads = 1;
  const ScalingResult expected = fresh_scaling(*g, config, 1);
  {
    ScalingResult first = expected;
    (void)g->offer_scaling(key_of(config), first);  // the first use
    ASSERT_EQ(g->known_scaling(key_of(config)), nullptr);
  }

  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::atomic<int> winners{0};
  std::atomic<int> wrong{0};
  std::vector<const ScalingResult*> read(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ScalingResult mine = expected;
      ready.fetch_add(1, std::memory_order_relaxed);
      while (ready.load(std::memory_order_relaxed) < kThreads) std::this_thread::yield();
      const ScalingResult& got = g->offer_scaling(key_of(config), mine);
      read[static_cast<std::size_t>(t)] = &got;
      if (&got != &mine) winners.fetch_add(1, std::memory_order_relaxed);
      if (got.dr != expected.dr || got.dc != expected.dc)
        wrong.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(winners.load(), 1);
  const ScalingResult* entry = g->known_scaling(key_of(config));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(std::ranges::count(read, entry), 1);
  expect_bit_identical(*entry, expected, "published entry");

  // Through the pipeline: concurrent jobs on the published graph all hit.
  std::atomic<int> hits{0};
  threads.clear();
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      Workspace ws;
      PipelineResult out;
      run_pipeline_ws(*g, config, ws, out);
      if (out.scaling_source == ScalingSource::kMemo)
        hits.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hits.load(), kThreads);
}

TEST(ScalingMemo, CacheRechargesTheEntryAndEvictionReleasesIt) {
  const GraphSpec spec_a = parse_graph_spec("gen:er:n=1024,deg=4,seed=1");
  const GraphSpec spec_b = parse_graph_spec("gen:er:n=1024,deg=4,seed=2");
  const GraphSpec spec_c = parse_graph_spec("gen:er:n=1024,deg=4,seed=3");
  const std::size_t plain_a = build_graph(spec_a, 0).memory_bytes();
  const std::size_t plain_b = build_graph(spec_b, 0).memory_bytes();
  GraphCache::Options options;
  options.shards = 1;
  // a and b fit; a, b and a's remembered scaling (16 bytes per row and
  // column pair, 32 KiB here) do not.
  options.max_bytes = plain_a + plain_b + 8 * 1024;
  GraphCache cache(options);

  std::weak_ptr<const BipartiteGraph> watch;
  {
    const auto a = cache.get_or_build(spec_a, 0);
    watch = a;
    (void)cache.get_or_build(spec_b, 0);
    ASSERT_EQ(cache.stats().entries, 2u);
    ASSERT_EQ(cache.stats().bytes, plain_a + plain_b);

    PipelineConfig config;
    config.compute_quality = false;
    Workspace ws;
    PipelineResult out;
    run_pipeline_ws(*a, config, ws, out);
    run_pipeline_ws(*a, config, ws, out);
    ASSERT_NE(a->known_scaling(key_of(config)), nullptr);
    const std::size_t grown = a->memory_bytes();
    EXPECT_GE(grown, plain_a + 2 * 1024 * sizeof(double));
    EXPECT_EQ(cache.stats().bytes, plain_a + plain_b);  // not charged until touched

    // The next touch re-charges a, which now pushes b (the LRU tail) out.
    EXPECT_EQ(cache.get_or_build(spec_a, 0), a);
    const GraphCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.bytes, grown);
  }
  // b returns and evicts a; with no job holding a, the graph and its
  // entry's multipliers are freed, and the budget holds b and c again.
  const auto b = cache.get_or_build(spec_b, 0);
  const auto c = cache.get_or_build(spec_c, 0);
  const GraphCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, b->memory_bytes() + c->memory_bytes());
  EXPECT_TRUE(watch.expired());
}

// ------------------------------------------------- batch-runner parity ---

std::vector<JobSpec> parity_batch() {
  std::istringstream in(
      // Pinned repeats: cache hits under any worker count.
      "input=gen:er:n=512,deg=4,seed=7 algo=two_sided iters=5\n"
      "input=gen:er:n=512,deg=4,seed=7 algo=one_sided iters=5\n"
      "input=gen:er:n=512,deg=4,seed=7 algo=karp_sipser\n"
      // Unpinned: per-index derived seeds, no sharing.
      "input=gen:er:n=512,deg=4 algo=two_sided iters=5\n"
      "input=gen:er:n=512,deg=4 algo=two_sided iters=5\n"
      // Seed-blind generator: shared across derived seeds.
      "input=gen:mesh:nx=24 algo=one_sided augment=1\n"
      "input=gen:mesh:nx=24 algo=hopcroft_karp\n"
      // Failure records must be identical too.
      "input=gen:er:n=512 algo=nope\n");
  return parse_job_specs(in);
}

std::string batch_lines(const std::vector<JobSpec>& jobs, const EngineConfig& config) {
  std::string out;
  for (const JobResult& r : testing::run_on_fresh_engine(jobs, config)) {
    out += to_json_line(r, /*include_timings=*/false);
    out += '\n';
  }
  return out;
}

TEST(GraphCacheParity, BatchOutputByteIdenticalOnVsOff) {
  const std::vector<JobSpec> jobs = parity_batch();
  EngineConfig off;
  off.seed = 42;
  off.graph_cache_mb = 0;  // rebuild per job
  const std::string reference = batch_lines(jobs, off);

  for (const int workers : {1, 2, 8}) {
    EngineConfig on;
    on.seed = 42;
    on.threads = workers;
    EXPECT_EQ(batch_lines(jobs, on), reference) << "workers=" << workers;

    // External cache (stats visible), tiny budget (eviction mid-batch) —
    // still byte-identical.
    GraphCache::Options tiny;
    tiny.max_bytes = 1 << 20;
    tiny.shards = 2;
    GraphCache cache(tiny);
    EngineConfig external = on;
    external.graph_cache = &cache;
    EXPECT_EQ(batch_lines(jobs, external), reference) << "workers=" << workers;
    // The pinned and mesh repeats shared one build — either as plain hits,
    // or (when every duplicate probed before the first insert landed, which
    // sanitizer slowdowns make routine at workers > 1) as race discards,
    // where the losers adopt the resident copy. Both prove the sharing.
    const GraphCache::Stats stats = cache.stats();
    EXPECT_GT(stats.hits + stats.race_discards, 0u) << "workers=" << workers;
  }
}

// ------------------------------------------------------ streaming sink ---

TEST(EngineRunStream, EmitsIndexOrderedRecordsAndMatchesRunCollect) {
  const std::vector<JobSpec> jobs = parity_batch();
  EngineConfig config;
  config.seed = 9;
  const std::string reference = batch_lines(jobs, config);
  const std::size_t reference_failures = 1;  // the algo=nope job

  for (const int workers : {1, 2, 8}) {
    config.threads = workers;
    Engine engine(config);
    std::string streamed;
    std::size_t seen = 0;
    const std::size_t failed =
        engine.run(jobs, [&](const JobResult& r) {
          EXPECT_EQ(r.index, seen) << "stream must emit in batch index order";
          ++seen;
          streamed += to_json_line(r, /*include_timings=*/false);
          streamed += '\n';
        });
    EXPECT_EQ(seen, jobs.size());
    EXPECT_EQ(failed, reference_failures);
    EXPECT_EQ(streamed, reference) << "workers=" << workers;
  }
}

TEST(EngineRunStream, NullSinkStillCountsFailures) {
  const std::vector<JobSpec> jobs = parity_batch();
  EngineConfig config;
  config.seed = 9;
  Engine engine(config);
  EXPECT_EQ(engine.run(jobs, {}), 1u);
}

} // namespace
} // namespace bmh
