/// \file test_failpoints.cpp
/// \brief The failure-domain hardening suite: failpoint grammar, trigger
/// modes and the macros' armed-site gate (exercised directly), and fault
/// injection through the real sites, which every build carries: store I/O
/// errors degrading to direct builds, the circuit breaker tripping and
/// cooling down, CRC corruption taking the content/self-heal path, job
/// deadlines, and the randomized 500-job fault-schedule soak asserting the
/// engine's core robustness contract: no crash, exactly one record per
/// job, and byte-identical records for every job that succeeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "test_helpers.hpp"

namespace bmh {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------ the grammar ---

TEST(FailpointConfig, ParsesActions) {
  EXPECT_EQ(fp::parse_config("off").action, fp::Action::kOff);
  EXPECT_EQ(fp::parse_config("error").action, fp::Action::kError);
  EXPECT_EQ(fp::parse_config("corrupt").action, fp::Action::kCorrupt);

  const fp::Config ms = fp::parse_config("delay(50ms)");
  EXPECT_EQ(ms.action, fp::Action::kDelay);
  EXPECT_EQ(ms.delay_ns, 50'000'000ull);
  EXPECT_EQ(fp::parse_config("delay(7)").delay_ns, 7'000'000ull);  // default ms
  EXPECT_EQ(fp::parse_config("delay(10us)").delay_ns, 10'000ull);
  EXPECT_EQ(fp::parse_config("delay(3ns)").delay_ns, 3ull);
  EXPECT_EQ(fp::parse_config("delay(2s)").delay_ns, 2'000'000'000ull);
}

TEST(FailpointConfig, ParsesTriggerModifiers) {
  const fp::Config c = fp::parse_config("error:p=0.25,every=3,first=10");
  EXPECT_EQ(c.action, fp::Action::kError);
  EXPECT_DOUBLE_EQ(c.probability, 0.25);
  EXPECT_EQ(c.every, 3ull);
  EXPECT_EQ(c.first, 10ull);
  // Defaults: disarmed modifiers.
  const fp::Config plain = fp::parse_config("error");
  EXPECT_LT(plain.probability, 0.0);
  EXPECT_EQ(plain.every, 0ull);
  EXPECT_EQ(plain.first, 0ull);
}

TEST(FailpointConfig, RejectsGrammarErrors) {
  EXPECT_THROW((void)fp::parse_config("explode"), std::invalid_argument);
  EXPECT_THROW((void)fp::parse_config("delay()"), std::invalid_argument);
  EXPECT_THROW((void)fp::parse_config("delay(5min)"), std::invalid_argument);
  EXPECT_THROW((void)fp::parse_config("error:p=1.5"), std::invalid_argument);
  EXPECT_THROW((void)fp::parse_config("error:p=nope"), std::invalid_argument);
  EXPECT_THROW((void)fp::parse_config("error:every=0"), std::invalid_argument);
  EXPECT_THROW((void)fp::parse_config("error:first=0"), std::invalid_argument);
  EXPECT_THROW((void)fp::parse_config("error:bogus=1"), std::invalid_argument);
  EXPECT_THROW(fp::configure_from_string("noequalsign"), std::invalid_argument);
  EXPECT_THROW(fp::configure_from_string("=error"), std::invalid_argument);
}

// -------------------------------------------------- direct site evaluation ---
// fp::hit() is called directly here, so the trigger-mode semantics are
// certified apart from any production site. Sites are test-local names —
// never compiled-in ones, so these cannot perturb the injection tests below.

TEST(FailpointHit, UnarmedSiteIsFalseAndUncounted) {
  EXPECT_FALSE(fp::hit("test.never_armed"));
  EXPECT_EQ(fp::evaluations("test.never_armed"), 0ull);
}

TEST(FailpointHit, ErrorActionThrowsWithSiteName) {
  fp::configure("test.error_site", fp::parse_config("error"));
  try {
    (void)fp::hit("test.error_site");
    FAIL() << "armed error site did not throw";
  } catch (const fp::FailpointError& e) {
    EXPECT_EQ(e.site(), "test.error_site");
    EXPECT_NE(std::string(e.what()).find("test.error_site"), std::string::npos);
  }
  EXPECT_EQ(fp::evaluations("test.error_site"), 1ull);
  EXPECT_EQ(fp::fires("test.error_site"), 1ull);
  // Disarm: evaluations freeze (disarmed lookups don't count), counters keep
  // their totals.
  fp::clear("test.error_site");
  EXPECT_FALSE(fp::hit("test.error_site"));
  EXPECT_EQ(fp::evaluations("test.error_site"), 1ull);
}

TEST(FailpointHit, FirstNFiresOnlyTheFirstN) {
  fp::configure("test.first2", fp::parse_config("corrupt:first=2"));
  EXPECT_TRUE(fp::hit("test.first2"));
  EXPECT_TRUE(fp::hit("test.first2"));
  EXPECT_FALSE(fp::hit("test.first2"));
  EXPECT_FALSE(fp::hit("test.first2"));
  EXPECT_EQ(fp::fires("test.first2"), 2ull);
  EXPECT_EQ(fp::evaluations("test.first2"), 4ull);
  fp::clear("test.first2");
}

TEST(FailpointHit, EveryNthFiresOnMultiplesOfN) {
  fp::configure("test.every3", fp::parse_config("corrupt:every=3"));
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(fp::hit("test.every3"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
  fp::clear("test.every3");
}

TEST(FailpointHit, ProbabilityEndpointsAndDeterminism) {
  fp::configure("test.p0", fp::parse_config("corrupt:p=0"));
  fp::configure("test.p1", fp::parse_config("corrupt:p=1"));
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(fp::hit("test.p0"));
    EXPECT_TRUE(fp::hit("test.p1"));
  }
  // A fractional p replays identically for the same seed: the draw hashes
  // (seed, site, per-site ordinal), nothing else.
  fp::set_seed(42);
  fp::configure("test.phalf_a", fp::parse_config("corrupt:p=0.5"));
  fp::configure("test.phalf_b", fp::parse_config("corrupt:p=0.5"));
  std::vector<bool> a, b;
  for (int i = 0; i < 64; ++i) a.push_back(fp::hit("test.phalf_a"));
  for (int i = 0; i < 64; ++i) b.push_back(fp::hit("test.phalf_b"));
  // Distinct sites draw distinct (hash-decorrelated) sequences...
  EXPECT_NE(a, b);
  // ...and ~p of the draws fire (loose bound; the sequence is fixed).
  const auto fires_in = [](const std::vector<bool>& v) {
    return std::count(v.begin(), v.end(), true);
  };
  EXPECT_GT(fires_in(a), 16);
  EXPECT_LT(fires_in(a), 48);
  fp::set_seed(0x9E3779B97F4A7C15ull);  // restore the default
  fp::clear("test.p0");
  fp::clear("test.p1");
  fp::clear("test.phalf_a");
  fp::clear("test.phalf_b");
}

TEST(FailpointHit, DelayActionSleepsAndReturnsFalse) {
  fp::configure("test.delay", fp::parse_config("delay(2ms)"));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(fp::hit("test.delay"));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(2));
  fp::clear("test.delay");
}

TEST(FailpointHit, ConfigureFromStringArmsSeveralSites) {
  fp::configure_from_string(
      "test.multi_a=error; test.multi_b=delay(1us):every=2 ;test.multi_c=off");
  EXPECT_THROW((void)fp::hit("test.multi_a"), fp::FailpointError);
  EXPECT_FALSE(fp::hit("test.multi_b"));  // every=2: first evaluation skips
  EXPECT_FALSE(fp::hit("test.multi_c"));
  fp::clear_all();
  EXPECT_FALSE(fp::hit("test.multi_a"));
}

// The macros' gate: one relaxed load of the armed-site count. Disarmed
// sites never reach hit(), so they take no lock and count nothing.
TEST(FailpointHit, GateFollowsTheArmedSiteCount) {
  fp::clear_all();
  EXPECT_FALSE(fp::any_armed());
  fp::configure("test.gate", fp::parse_config("error"));
  EXPECT_TRUE(fp::any_armed());
  fp::clear("test.gate");
  EXPECT_FALSE(fp::any_armed());
  for (int i = 0; i < 8; ++i) {
    BMH_FAILPOINT("test.gate");
    EXPECT_FALSE(BMH_FAILPOINT_CORRUPT("test.gate"));
  }
  EXPECT_EQ(fp::evaluations("test.gate"), 0ull);
}

// ------------------------------------------------------ deadline machinery ---
// timeout_ms needs no failpoints: a deliberately over-sized build blows a
// 1 ms budget at the post-acquire check in every build mode.

TEST(JobDeadlines, TimeoutProducesATimeoutRecordNotACrash) {
  EngineConfig config;
  config.threads = 1;
  config.graph_cache_mb = 0;  // direct build — nothing cached between tests
  Engine engine(config);

  JobSpec job = parse_job_spec_line(
      "name=slow input=gen:er:n=400000,deg=8 algo=two_sided timeout_ms=1");
  EXPECT_EQ(job.timeout_ms, 1ull);
  const JobResult r = engine.submit(std::move(job)).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, ErrorKind::kTimeout);
  EXPECT_NE(r.error.find("deadline exceeded"), std::string::npos) << r.error;
  // The record renders with the taxonomy attached.
  const std::string line = to_json_line(r, /*include_timings=*/false);
  EXPECT_NE(line.find("\"error_kind\":\"timeout\""), std::string::npos) << line;

  // The same job without the deadline succeeds — proof the timeout was the
  // only failure cause.
  JobSpec fine = parse_job_spec_line(
      "name=slow input=gen:er:n=400000,deg=8 algo=two_sided");
  const JobResult ok = engine.submit(std::move(fine)).get();
  EXPECT_TRUE(ok.ok) << ok.error;
}

TEST(JobDeadlines, ZeroTimeoutMeansNone) {
  const JobSpec job = parse_job_spec_line("input=gen:er:n=64 timeout_ms=0");
  EXPECT_EQ(job.timeout_ms, 0ull);
  EXPECT_THROW((void)parse_job_spec_line("input=gen:er:n=64 timeout_ms=-5"),
               std::invalid_argument);
}

// --------------------------------------------------------- injected faults ---
// Everything below drives faults through the compiled-in sites. The fixture
// guarantees a clean slate per test however a predecessor failed.

class FailpointInjection : public ::testing::Test {
protected:
  void SetUp() override {
    fp::clear_all();
    dir_ = testing::scratch_dir("bmh_fp_");
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fp::clear_all();
    fp::set_seed(0x9E3779B97F4A7C15ull);
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

TEST_F(FailpointInjection, StoreLoadErrorDegradesToBuildNotFailure) {
  const GraphSpec spec = parse_graph_spec("gen:er:n=512,deg=4,seed=5");
  const std::string key = canonical_graph_key(spec, 1);
  {
    GraphStore store(dir_);
    ASSERT_TRUE(store.spill(key, build_graph(spec, 1)));
  }

  fp::configure("store.load", fp::parse_config("error"));
  GraphCache::Options options;
  options.store_dir = dir_;
  GraphCache cache(options);
  // The warm file is there, every load of it errors — the cache absorbs the
  // fault and builds. The caller cannot tell; the counters can.
  const auto g = cache.get_or_build(spec, 1);
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->structurally_equal(build_graph(spec, 1)));
  const GraphCache::Stats s = cache.stats();
  EXPECT_EQ(s.store_hits, 0ull);
  EXPECT_GE(s.store_errors, 1ull);
  EXPECT_GE(fp::fires("store.load"), 1ull);
}

TEST_F(FailpointInjection, BreakerTripsOnConsecutiveIoErrorsAndCoolsDown) {
  GraphStore::Options options;
  options.breaker_threshold = 3;
  options.breaker_cooldown_ms = 50;
  GraphStore store(dir_, options);
  const GraphSpec spec = parse_graph_spec("gen:cycle:n=64");
  const std::string key = canonical_graph_key(spec, 1);
  ASSERT_TRUE(store.spill(key, build_graph(spec, 1)));

  fp::configure("store.load", fp::parse_config("error"));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(store.try_load(key), nullptr);
  GraphStore::Stats stats = store.stats();
  EXPECT_EQ(stats.io_errors, 3ull);
  EXPECT_EQ(stats.breaker_trips, 1ull);
  EXPECT_TRUE(store.breaker_open());

  // Open breaker: calls are skipped without touching the failpoint (no new
  // evaluations), spills are skipped too.
  const std::uint64_t evals_at_trip = fp::evaluations("store.load");
  EXPECT_EQ(store.try_load(key), nullptr);
  EXPECT_FALSE(store.spill("other-key", build_graph(spec, 2)));
  EXPECT_EQ(fp::evaluations("store.load"), evals_at_trip);
  stats = store.stats();
  EXPECT_EQ(stats.io_errors, 3ull);  // skips are not errors
  EXPECT_GE(stats.breaker_skips, 2ull);

  // After the cooldown (fault gone) the store serves again and the streak
  // resets — half-open probe succeeds, breaker closes.
  fp::clear("store.load");
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_FALSE(store.breaker_open());
  const auto g = store.try_load(key);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(store.stats().breaker_trips, 1ull);
}

TEST_F(FailpointInjection, ContentCorruptionNeverFeedsTheBreaker) {
  GraphStore::Options options;
  options.breaker_threshold = 2;
  GraphStore store(dir_, options);
  const GraphSpec spec = parse_graph_spec("gen:mesh:nx=12");
  const std::string key = canonical_graph_key(spec, 1);
  const BipartiteGraph g = build_graph(spec, 1);

  // Every load reports a CRC mismatch: content rejection + self-heal unlink,
  // then the rewritten file corrupts again... N times over. The breaker must
  // stay closed throughout — the medium is healthy, the bytes are not.
  fp::configure("store.load.crc", fp::parse_config("corrupt"));
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(store.spill(key, g));
    EXPECT_EQ(store.try_load(key), nullptr);
    EXPECT_FALSE(fs::exists(store.path_for(key)));  // self-healed
  }
  const GraphStore::Stats stats = store.stats();
  EXPECT_EQ(stats.content_errors, 4ull);
  EXPECT_EQ(stats.healed, 4ull);
  EXPECT_EQ(stats.io_errors, 0ull);
  EXPECT_EQ(stats.breaker_trips, 0ull);
  EXPECT_FALSE(store.breaker_open());

  // Fault gone: the key self-heals for real on the next spill/load cycle.
  fp::clear("store.load.crc");
  ASSERT_TRUE(store.spill(key, g));
  const auto healed = store.try_load(key);
  ASSERT_NE(healed, nullptr);
  EXPECT_TRUE(healed->structurally_equal(g));
}

TEST_F(FailpointInjection, SpillErrorLeavesNoTmpResidue) {
  GraphStore store(dir_);
  const GraphSpec spec = parse_graph_spec("gen:er:n=128,deg=4,seed=3");
  fp::configure("serialize.save.rename", fp::parse_config("error"));
  EXPECT_FALSE(store.spill("key", build_graph(spec, 1)));
  EXPECT_EQ(store.stats().io_errors, 1ull);
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 0u) << "failed spill left residue in the store dir";
  // And the slot is not poisoned: the next spill succeeds.
  fp::clear("serialize.save.rename");
  EXPECT_TRUE(store.spill("key", build_graph(spec, 1)));
  EXPECT_NE(store.try_load("key"), nullptr);
}

TEST_F(FailpointInjection, SourceIoErrorIsRetriedThenClassified) {
  EngineConfig config;
  config.threads = 1;
  config.graph_cache_mb = 0;  // every job reads the file: no cached graph
                              // can mask the injected read fault
  Engine engine(config);
  const std::string path = std::string(BMH_TEST_DATA_DIR) + "/rect_general.mtx";

  // first=1: the initial read fails, the engine's one retry succeeds — the
  // job is ok and the retry is visible in the worker counters.
  fp::configure("source.mtx.read", fp::parse_config("error:first=1"));
  JobSpec job = parse_job_spec_line("name=retry input=mtx:" + path +
                                    " algo=hopcroft_karp");
  const JobResult ok = engine.submit(std::move(job)).get();
  EXPECT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(engine.metrics().counter_total("worker", "io_retries"), 1ull);

  // Always-on: both attempts fail, the record carries source_io.
  fp::configure("source.mtx.read", fp::parse_config("error"));
  JobSpec doomed = parse_job_spec_line("name=doomed input=mtx:" + path +
                                       " algo=hopcroft_karp");
  const JobResult bad = engine.submit(std::move(doomed)).get();
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error_kind, ErrorKind::kSourceIo);
  EXPECT_EQ(engine.metrics().counter_total("worker", "jobs_failed_source_io"), 1ull);
}

TEST_F(FailpointInjection, PipelineStageErrorIsExecNeverRetried) {
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  fp::configure("pipeline.stage", fp::parse_config("error:first=1"));
  JobSpec job = parse_job_spec_line("name=stagefail input=gen:er:n=256,deg=4");
  const JobResult r = engine.submit(std::move(job)).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, ErrorKind::kExec);
  // A pipeline fault must not trigger the acquire retry loop.
  EXPECT_EQ(engine.metrics().counter_total("worker", "io_retries"), 0ull);
  EXPECT_EQ(engine.metrics().counter_total("worker", "jobs_failed_exec"), 1ull);
}

TEST_F(FailpointInjection, DelayPlusDeadlineTimesOutAtAStageBoundary) {
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  // The budget leaves the graph build (well under a millisecond alone) a wide
  // margin even beside other test binaries, so the deadline falls inside the
  // first stage's delay and is caught at the next stage boundary.
  fp::configure("pipeline.stage", fp::parse_config("delay(200ms)"));
  JobSpec job =
      parse_job_spec_line("name=slowstage input=gen:er:n=256,deg=4 timeout_ms=100");
  const JobResult r = engine.submit(std::move(job)).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, ErrorKind::kTimeout);
  EXPECT_NE(r.error.find("before stage"), std::string::npos) << r.error;
}

// ------------------------------------------------------------ the big soak ---

/// The randomized fault-schedule soak (the PR's capstone): 500 jobs of
/// every kind through an engine with cache + store while every compiled-in
/// failpoint fires with ~10% probability. Certified invariants:
///   1. no crash, no hang (the suite completing under ASan is the proof);
///   2. exactly one result per job, every failure carrying a message and a
///      classified kind;
///   3. every job that *does* succeed emits a record byte-identical to the
///      fault-free run's — degraded paths may be slower, never different;
///   4. the store self-heals: with faults cleared, a fresh engine over the
///      same directory serves the whole batch clean.
TEST_F(FailpointInjection, RandomizedFaultScheduleSoak) {
  const std::string mm_path = std::string(BMH_TEST_DATA_DIR) + "/rect_general.mtx";
  const char* kTemplates[] = {
      "input=gen:er:n=%d,deg=4 algo=two_sided iters=3",
      "input=gen:er:n=%d,deg=5 algo=one_sided augment=1",
      "input=gen:adversarial:n=%d,k=4 algo=karp_sipser",
      "input=gen:planted:n=%d algo=hopcroft_karp",
      "input=gen:mesh:nx=24 algo=one_sided",
      "kind=undirected-match input=gen:mesh:nx=20",
      "kind=undirected-match algo=greedy input=gen:er:n=%d,deg=4",
      "kind=analyze algo=dm input=gen:er:n=%d,deg=4",
      "kind=analyze algo=sprank input=gen:powerlaw:n=%d,avg=6",
      "kind=analyze algo=koenig input=gen:cycle:n=%d",
  };
  constexpr int kJobs = 500;
  std::vector<JobSpec> jobs;
  jobs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    std::string spec_line;
    if (i % 25 == 7) {
      // File-backed jobs so the source.mm.* / source.mtx.read sites see
      // real traffic.
      spec_line = "input=mm:path=" + mm_path + " algo=hopcroft_karp";
    } else if (i % 25 == 19) {
      spec_line = "kind=analyze algo=dm input=mtx:" + mm_path;
    } else {
      char line[160];
      // Three sizes per template so the cache serves some jobs and builds
      // others; names make any failure's job identifiable in gtest output.
      std::snprintf(line, sizeof line, kTemplates[i % std::size(kTemplates)],
                    256 + 128 * (i % 3));
      spec_line = line;
    }
    jobs.push_back(
        parse_job_spec_line("name=soak" + std::to_string(i) + " " + spec_line));
  }

  const auto run_engine_batch = [&](bool with_store) {
    EngineConfig config;
    config.threads = 4;
    config.seed = 7;
    config.graph_cache_mb = 64;
    if (with_store) config.graph_store_dir = dir_;
    Engine engine(config);
    return engine.run_collect(jobs);
  };

  // Fault-free baseline (no store: the pure compute truth).
  const std::vector<JobResult> baseline = run_engine_batch(false);
  ASSERT_EQ(baseline.size(), static_cast<std::size_t>(kJobs));
  for (const JobResult& r : baseline) ASSERT_TRUE(r.ok) << r.name << ": " << r.error;

  // Arm the full schedule: every compiled-in site, ~10% each, deterministic.
  fp::set_seed(0xDEADBEEF);
  fp::configure_from_string(
      "store.load=error:p=0.1;"
      "store.load.crc=corrupt:p=0.1;"
      "store.spill=error:p=0.1;"
      "serialize.load=error:p=0.1;"
      "serialize.save.write=error:p=0.1;"
      "serialize.save.fsync=error:p=0.1;"
      "serialize.save.rename=error:p=0.1;"
      "mmap.open=error:p=0.1;"
      "source.mtx.read=error:p=0.1;"
      "source.mm.read=error:p=0.1;"
      "source.mm.hash=corrupt:p=0.1;"
      "cache.insert=error:p=0.1;"
      "pipeline.stage=error:p=0.05;"
      "store.prune=error:p=0.1");
  const std::vector<JobResult> faulted = run_engine_batch(true);

  // Invariant 2: one record per job, indexed and classified.
  ASSERT_EQ(faulted.size(), static_cast<std::size_t>(kJobs));
  std::size_t failures = 0;
  for (int i = 0; i < kJobs; ++i) {
    const JobResult& r = faulted[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.index, static_cast<std::size_t>(i));
    EXPECT_EQ(r.name, "soak" + std::to_string(i));
    if (!r.ok) {
      ++failures;
      EXPECT_FALSE(r.error.empty()) << r.name;
      EXPECT_NE(r.error_kind, ErrorKind::kNone) << r.name << ": " << r.error;
    }
  }
  // Sanity on the schedule itself: with every site at ~10% some jobs must
  // fail (pipeline faults are not absorbed) and — because the store/cache
  // tier degrades instead of failing — many must still succeed.
  EXPECT_GT(failures, 0u);
  EXPECT_LT(failures, static_cast<std::size_t>(kJobs));

  // Invariant 3: success means byte-identical to the fault-free record.
  for (int i = 0; i < kJobs; ++i) {
    const JobResult& r = faulted[static_cast<std::size_t>(i)];
    if (!r.ok) continue;
    EXPECT_EQ(to_json_line(r, /*include_timings=*/false),
              to_json_line(baseline[static_cast<std::size_t>(i)],
                           /*include_timings=*/false))
        << r.name;
  }

  // Invariant 4: clear the faults and the store directory — whatever state
  // the fault schedule left it in — serves a clean batch from scratch.
  fp::clear_all();
  const std::vector<JobResult> recovered = run_engine_batch(true);
  ASSERT_EQ(recovered.size(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    const JobResult& r = recovered[static_cast<std::size_t>(i)];
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    EXPECT_EQ(to_json_line(r, /*include_timings=*/false),
              to_json_line(baseline[static_cast<std::size_t>(i)],
                           /*include_timings=*/false))
        << r.name;
  }
}

} // namespace
} // namespace bmh
