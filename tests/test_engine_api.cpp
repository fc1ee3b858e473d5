/// \file test_engine_api.cpp
/// \brief Tests for the bmh::Engine session façade: lifecycle (warm batches
/// byte-identical to fresh engines, second batch pure cache/store hits),
/// submit() futures and callbacks, concurrent submit stress + determinism
/// (the ASan/UBSan ctest job runs this), batches riding the submit queue
/// (larger than the queue, concurrent with other batches and submits,
/// per-kind slices exact in every snapshot), the serve round trip at API
/// level, thread auto-detection, the sprank and scaling memos on resident
/// graphs, and the GraphStore prune budget + EngineConfig wiring.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <latch>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "test_helpers.hpp"

namespace bmh {
namespace {

namespace fs = std::filesystem;

/// A small fast batch mixing generators, algorithms and pipeline shapes;
/// pinned and unpinned seeds both appear so the warm-engine test covers
/// the per-index derived keys too.
std::vector<JobSpec> mixed_batch() {
  std::istringstream in(
      "input=gen:er:n=512,deg=4 algo=two_sided iters=5\n"
      "input=gen:er:n=512,deg=4 algo=one_sided iters=5\n"
      "input=gen:er:n=256,deg=4,seed=7 algo=greedy\n"
      "input=gen:adversarial:n=256,k=8 algo=karp_sipser\n"
      "input=gen:mesh:nx=24 algo=one_sided augment=1\n"
      "input=gen:planted:n=512 algo=hopcroft_karp\n"
      "input=gen:powerlaw:n=512 algo=k_out k=2\n");
  return parse_job_specs(in);
}

std::string jsonl(const std::vector<JobResult>& results) {
  std::string out;
  for (const JobResult& r : results) {
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    out += to_json_line(r, /*include_timings=*/false);
    out += '\n';
  }
  return out;
}

// ------------------------------------------------------------ lifecycle ---

TEST(EngineApi, WarmBatchesMatchFreshEnginesAndSecondBatchIsAllCacheHits) {
  const std::vector<JobSpec> jobs = mixed_batch();
  EngineConfig config;
  config.threads = 2;
  config.seed = 123;
  const std::string fresh_first = jsonl(testing::run_on_fresh_engine(jobs, config));
  const std::string fresh_second = jsonl(testing::run_on_fresh_engine(jobs, config));
  EXPECT_EQ(fresh_first, fresh_second);

  Engine engine(config);
  EXPECT_EQ(jsonl(engine.run_collect(jobs)), fresh_first);
  const Engine::Stats after_first = engine.stats();
  EXPECT_EQ(after_first.jobs_run, jobs.size());
  EXPECT_EQ(after_first.jobs_failed, 0u);
  EXPECT_GT(after_first.cold_builds, 0u);

  // The warm engine: same jobs, same derived per-index seeds, so every
  // graph — the unpinned randomized ones included — is already resident.
  EXPECT_EQ(jsonl(engine.run_collect(jobs)), fresh_first);
  const Engine::Stats after_second = engine.stats();
  EXPECT_EQ(after_second.cold_builds, after_first.cold_builds)
      << "second batch on a warm engine must perform zero cold graph builds";
  EXPECT_EQ(after_second.cache.hits, after_first.cache.hits + jobs.size());

  // The index-ordered streaming form emits the same bytes.
  std::string streamed;
  const std::size_t failed = engine.run(jobs, [&](const JobResult& r) {
    streamed += to_json_line(r, false);
    streamed += '\n';
  });
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(streamed, fresh_first);
}

TEST(EngineApi, ThreadsAutoDetectAndEmptyBatches) {
  EngineConfig config;
  config.threads = 0;  // auto: one per processor
  config.graph_cache_mb = 0;
  Engine engine(config);
  EXPECT_EQ(engine.threads(), num_procs());
  EXPECT_EQ(engine.config().threads, engine.threads());
  EXPECT_EQ(engine.cache(), nullptr);
  EXPECT_EQ(engine.store(), nullptr);

  const std::vector<JobSpec> none;
  EXPECT_TRUE(engine.run_collect(none).empty());
  EXPECT_EQ(engine.run(none, {}), 0u);
  EXPECT_EQ(engine.stats().jobs_run, 0u);
}

TEST(EngineApi, ResultsIndependentOfPoolSize) {
  const std::vector<JobSpec> jobs = mixed_batch();
  EngineConfig base;
  base.seed = 9;
  base.threads = 1;
  std::string reference;
  {
    Engine engine(base);
    reference = jsonl(engine.run_collect(jobs));
  }
  for (const int threads : {2, 4, 8}) {
    EngineConfig config = base;
    config.threads = threads;
    config.threads_per_job = threads % 3 + 1;
    Engine engine(config);
    EXPECT_EQ(jsonl(engine.run_collect(jobs)), reference) << threads;
  }
}

TEST(EngineApi, FailingJobsAreRecordsNotAborts) {
  std::istringstream in(
      "input=gen:cycle:n=64 algo=greedy\n"
      "input=mtx:/nonexistent/file.mtx\n"
      "input=gen:cycle:n=64 algo=nope\n");
  const std::vector<JobSpec> jobs = parse_job_specs(in);
  Engine engine;
  const std::vector<JobResult> results = engine.run_collect(jobs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_FALSE(results[2].ok);
  EXPECT_NE(results[2].error.find("nope"), std::string::npos);
  const Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.jobs_run, 3u);
  EXPECT_EQ(stats.jobs_failed, 2u);
  EXPECT_EQ(engine.run(jobs, {}), 2u);
}

// --------------------------------------------------------------- submit ---

TEST(EngineApi, SubmitFutureMatchesBatchExecution) {
  // The i-th submit derives the same seed batch index i would, so a job
  // stream submitted one by one reproduces run_collect exactly.
  const std::vector<JobSpec> jobs = mixed_batch();
  EngineConfig config;
  config.seed = 123;
  config.threads = 2;

  std::vector<JobResult> collected;
  {
    Engine engine(config);
    collected = engine.run_collect(jobs);
  }
  Engine engine(config);
  std::vector<std::future<JobResult>> futures;
  futures.reserve(jobs.size());
  for (const JobSpec& job : jobs) futures.push_back(engine.submit(job));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const JobResult r = futures[i].get();
    EXPECT_EQ(r.index, i);
    EXPECT_EQ(to_json_line(r, false), to_json_line(collected[i], false));
  }
}

TEST(EngineApi, SubmitCallbackAndExplicitIndex) {
  Engine engine;
  JobSpec job = parse_job_spec_line("name=j input=gen:cycle:n=64 algo=greedy");

  std::promise<JobResult> promise;
  std::future<JobResult> got = promise.get_future();
  engine.submit(job, [&](JobResult&& r) { promise.set_value(std::move(r)); },
                /*index=*/42);
  const JobResult r = got.get();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.index, 42u);
  EXPECT_EQ(r.seed, derive_job_seed(EngineConfig{}.seed, 42));

  // Explicit-index submits do not advance the automatic counter.
  const JobResult auto_indexed = engine.submit(job).get();
  EXPECT_EQ(auto_indexed.index, 0u);
}

TEST(EngineApi, ThrowingCallbackIsContainedNotFatal) {
  // Regression: a throwing submit callback used to propagate into the
  // worker loop and take the pool thread down with it. With one thread,
  // the follow-up job only completes if that same worker survived.
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  const JobSpec job = parse_job_spec_line("input=gen:cycle:n=64 algo=greedy");

  std::promise<void> reached;
  engine.submit(job, [&](JobResult&&) {
    reached.set_value();
    throw std::runtime_error("callback exploded");
  });
  reached.get_future().wait();

  const JobResult r = engine.submit(job).get();
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(engine.metrics().counter_total("worker", "callback_errors"), 1u);
  EXPECT_EQ(engine.metrics().counter_total("worker", "jobs_run"), 2u);
}

TEST(EngineApi, PendingSubmitsSurviveUntilDestruction) {
  // The destructor drains accepted work: no future is ever left with a
  // broken promise.
  std::vector<std::future<JobResult>> futures;
  {
    EngineConfig config;
    config.threads = 2;
    Engine engine(config);
    const JobSpec job =
        parse_job_spec_line("input=gen:er:n=256,deg=4,seed=3 algo=greedy");
    for (int i = 0; i < 16; ++i) futures.push_back(engine.submit(job));
  }  // ~Engine runs with most submits still queued
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
}

TEST(EngineApi, TimeoutBeyondTheClockRangeNeverExpires) {
  // timeout_ms * 1e6 overflows int64 nanoseconds for these budgets (the
  // second is the largest the spec accepts): the deadline saturates instead
  // of wrapping into the past.
  Engine engine;
  for (const char* budget : {"10000000000000", "9223372036854775807"}) {
    const JobResult r =
        engine
            .submit(parse_job_spec_line(
                std::string("input=gen:cycle:n=8 algo=greedy timeout_ms=") + budget))
            .get();
    EXPECT_TRUE(r.ok) << "timeout_ms=" << budget << ": " << r.error;
  }
}

// The destructor's drain covers a producer blocked *inside* submit() when
// the destructor begins: workers do not exit while a submitter still waits
// for room, so its job must still run and deliver. The worker is parked
// inside a callback so the scenario is deterministic: the queue fills, one
// extra producer blocks on capacity, the destructor starts, and only then
// is the worker released.
TEST(EngineApi, DestructorDrainObservesBlockedInFlightSubmit) {
  std::optional<Engine> engine;
  EngineConfig config;
  config.threads = 1;
  config.submit_queue_depth = 4;
  engine.emplace(config);
  ASSERT_EQ(engine->submit_capacity(), 4u);

  const JobSpec job =
      parse_job_spec_line("input=gen:cycle:n=8 algo=greedy quality=0 seed=5");
  std::mutex mutex;
  std::condition_variable cv;
  bool worker_parked = false;
  bool release_worker = false;
  std::atomic<int> delivered{0};
  engine->submit(job, [&](JobResult&&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(mutex);
    worker_parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release_worker; });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return worker_parked; });
  }
  const auto count = [&delivered](JobResult&&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  };
  for (int i = 0; i < 4; ++i) engine->submit(job, count);  // queue now full
  std::thread blocked_producer([&] { engine->submit(job, count); });
  // Give the producer time to block on capacity, then begin destruction
  // while it is still inside submit().
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread destroyer([&] { engine.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mutex);
    release_worker = true;
    cv.notify_all();
  }
  blocked_producer.join();
  destroyer.join();
  EXPECT_EQ(delivered.load(std::memory_order_relaxed), 6);
}

// The multi-producer variant: several producers are blocked mid-submit on a
// full queue when teardown begins. Every accepted job — queued, claimed, or
// still waiting for a slot inside submit() — must deliver exactly once.
// Each producer makes one submit through a raw pointer taken before
// teardown (never through the optional the destroyer resets), and a
// counted latch holds teardown back until every submit call has started:
// the engine drains submits that entered before its destructor, while a
// submit that begins after destruction started is outside its contract.
TEST(EngineApiStress, DestructorDrainRacesManyBlockedProducers) {
  constexpr int kProducers = 24;
  std::optional<Engine> engine;
  EngineConfig config;
  config.threads = 2;
  config.submit_queue_depth = 4;
  engine.emplace(config);

  const JobSpec job =
      parse_job_spec_line("input=gen:cycle:n=8 algo=greedy quality=0 seed=9");
  std::mutex mutex;
  std::condition_variable cv;
  int workers_parked = 0;
  bool release_workers = false;
  std::atomic<int> delivered{0};
  const auto parking = [&](JobResult&&) {
    delivered.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(mutex);
    ++workers_parked;
    cv.notify_all();
    cv.wait(lock, [&] { return release_workers; });
  };
  engine->submit(job, parking);
  engine->submit(job, parking);
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return workers_parked == 2; });
  }
  Engine* const target = &*engine;
  std::latch submits_started(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&] {
      submits_started.count_down();
      target->submit(job, [&delivered](JobResult&&) {
        delivered.fetch_add(1, std::memory_order_relaxed);
      });
    });
  // 24 submissions against 4 slots with both workers parked: 20 producers
  // are blocked inside submit() when teardown starts. The latch says every
  // call has started; the sleep lets the last ones get past its entry.
  submits_started.wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread destroyer([&] { engine.reset(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mutex);
    release_workers = true;
    cv.notify_all();
  }
  for (std::thread& t : producers) t.join();
  destroyer.join();
  EXPECT_EQ(delivered.load(std::memory_order_relaxed), 2 + kProducers);
}

// The sanitizer CI job runs this under ASan+UBSan: many threads submitting
// against one engine so queueing, claiming, delivery and the cache all
// interleave.
TEST(EngineApiStress, ConcurrentSubmitsAreDeterministic) {
  EngineConfig config;
  config.threads = 4;
  Engine engine(config);

  // Jobs pin their seeds so the result is independent of submission
  // interleaving, and every submit carries the same explicit index so the
  // records must be bit-for-bit equal; the reference comes from the engine
  // itself, serially.
  const JobSpec job = parse_job_spec_line(
      "input=gen:er:n=256,deg=4,seed=11 algo=two_sided iters=5 seed=77");
  const auto submit_indexed = [&] {
    auto promise = std::make_shared<std::promise<JobResult>>();
    std::future<JobResult> future = promise->get_future();
    engine.submit(
        job, [promise](JobResult&& r) { promise->set_value(std::move(r)); },
        /*index=*/0);
    return future;
  };
  const std::string expected = to_json_line(submit_indexed().get(), false);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        JobResult r = submit_indexed().get();
        if (!r.ok || to_json_line(r, false) != expected) ++mismatches;
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.jobs_run, 1u + kThreads * kPerThread);
  EXPECT_EQ(stats.jobs_failed, 0u);
  // One pinned instance: exactly one cold build, everything else cache hits.
  EXPECT_EQ(stats.cold_builds, 1u);
}

// ------------------------------------------------------ one work path ---

/// `count` tiny jobs cycling through every kind, unpinned so each record
/// depends on its derivation index.
std::vector<JobSpec> tiny_mixed_jobs(std::size_t count) {
  static const char* const kLines[] = {
      "input=gen:er:n=128,deg=3 algo=two_sided iters=3",
      "input=gen:er:n=128,deg=3 algo=one_sided iters=3 quality=0",
      "input=gen:mesh:nx=8 kind=undirected-match algo=one_out",
      "input=gen:planted:n=128 kind=analyze algo=sprank",
  };
  std::vector<JobSpec> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back(parse_job_spec_line(kLines[i % std::size(kLines)]));
    jobs.back().name = "t" + std::to_string(i);
  }
  return jobs;
}

/// The records `run` streams, one JSON line each; checks index order.
std::string run_lines(Engine& engine, const std::vector<JobSpec>& jobs) {
  std::string out;
  std::size_t next = 0;
  engine.run(jobs, [&](const JobResult& r) {
    EXPECT_EQ(r.index, next++) << "run must emit in batch index order";
    out += to_json_line(r, /*include_timings=*/false);
    out += '\n';
  });
  EXPECT_EQ(next, jobs.size());
  return out;
}

TEST(EngineApi, BatchLargerThanTheQueueIsIndexOrderedAndPoolInvariant) {
  // A batch rides the submit queue, so 64 jobs through 2 slots exercise the
  // backpressure wait on nearly every submit.
  const std::vector<JobSpec> jobs = tiny_mixed_jobs(64);
  EngineConfig config;
  config.seed = 17;
  config.submit_queue_depth = 2;
  config.threads = 1;
  std::string reference;
  {
    Engine serial(config);
    ASSERT_EQ(serial.submit_capacity(), 2u);
    reference = run_lines(serial, jobs);
  }
  config.threads = 4;
  Engine engine(config);
  EXPECT_EQ(run_lines(engine, jobs), reference);
  EXPECT_EQ(jsonl(engine.run_collect(jobs)), reference);
  EXPECT_EQ(engine.stats().jobs_run, 2 * jobs.size());
}

TEST(EngineApiStress, ConcurrentRunsAndSubmitsStayIsolated) {
  // Two callers run different batches on one engine while a third submits:
  // every batch still reproduces its solo output byte for byte, because a
  // batch's derivation indices are its own (explicit 0..n-1), not the
  // shared automatic submit counter.
  EngineConfig config;
  config.threads = 4;
  config.seed = 3;
  config.submit_queue_depth = 8;
  const std::vector<JobSpec> batch_a = tiny_mixed_jobs(40);
  std::vector<JobSpec> batch_b = tiny_mixed_jobs(30);
  std::reverse(batch_b.begin(), batch_b.end());  // other specs at each index

  std::string solo_a, solo_b;
  {
    Engine solo(config);
    solo_a = run_lines(solo, batch_a);
    solo_b = run_lines(solo, batch_b);
  }

  Engine engine(config);
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  const auto runner = [&](const std::vector<JobSpec>& jobs, const std::string& solo) {
    for (int round = 0; round < kRounds; ++round)
      if (run_lines(engine, jobs) != solo) ++mismatches;
  };
  std::thread run_a(runner, std::cref(batch_a), std::cref(solo_a));
  std::thread run_b(runner, std::cref(batch_b), std::cref(solo_b));
  std::thread submitter([&] {
    const JobSpec job = parse_job_spec_line("input=gen:cycle:n=64 algo=greedy quality=0");
    std::vector<std::future<JobResult>> futures;
    for (int i = 0; i < 60; ++i) futures.push_back(engine.submit(job));
    for (auto& f : futures)
      if (!f.get().ok) ++mismatches;
  });
  run_a.join();
  run_b.join();
  submitter.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(engine.stats().jobs_run,
            kRounds * (batch_a.size() + batch_b.size()) + 60u);
}

TEST(EngineApi, PerKindSlicesSumToTotalsInEverySnapshot) {
  // The slices publish in the same seqlock burst as jobs_run / jobs_failed,
  // so no snapshot — taken at any instant while a 4-worker engine serves a
  // mixed-kind stream with failures in it — sees a worker whose breakdown
  // trails its totals.
  std::vector<JobSpec> jobs = tiny_mixed_jobs(600);
  for (std::size_t i = 0; i < jobs.size(); i += 7)
    jobs[i] = parse_job_spec_line(i % 2 == 0 ? "input=gen:nope:n=4"
                                             : "input=gen:cycle:n=16 algo=nope");
  EngineConfig config;
  config.threads = 4;
  Engine engine(config);

  std::atomic<bool> done{false};
  std::thread runner([&] {
    (void)engine.run(jobs, nullptr);
    done.store(true);
  });
  int snapshots = 0;
  int violations = 0;
  do {
    const obs::Snapshot snap = engine.metrics();
    ++snapshots;
    for (const obs::DomainSnapshot& d : snap.domains) {
      if (d.name != "worker") continue;
      const std::uint64_t by_kind = d.counter_or("jobs_run_match") +
                                    d.counter_or("jobs_run_undirected_match") +
                                    d.counter_or("jobs_run_analyze");
      std::uint64_t by_error = 0;
      for (const char* metric :
           {"jobs_failed_parse", "jobs_failed_source_io", "jobs_failed_store_io",
            "jobs_failed_build", "jobs_failed_exec", "jobs_failed_timeout"})
        by_error += d.counter_or(metric);
      if (by_kind != d.counter_or("jobs_run") ||
          by_error != d.counter_or("jobs_failed"))
        ++violations;
    }
  } while (!done.load());
  runner.join();
  EXPECT_EQ(violations, 0) << "over " << snapshots << " snapshots";
  const obs::Snapshot final_snap = engine.metrics();
  EXPECT_EQ(final_snap.counter_total("worker", "jobs_run"), jobs.size());
  EXPECT_GT(final_snap.counter_total("worker", "jobs_failed_parse"), 0u);
  EXPECT_GT(final_snap.counter_total("worker", "jobs_failed_exec"), 0u);
}

// ---------------------------------------------------------------- serve ---

// ---------------------------------------------------------- sprank memo ---

/// `count` quality-on match jobs on one pinned instance — one cached graph
/// shared by every job — with per-index derived pipeline seeds.
std::vector<JobSpec> repeated_quality_jobs(std::size_t count) {
  std::vector<JobSpec> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back(
        parse_job_spec_line("input=gen:er:n=1024,deg=3,seed=6 algo=two_sided iters=3"));
    jobs.back().name = "q" + std::to_string(i);
  }
  return jobs;
}

std::uint64_t worker_total(const Engine& engine, std::string_view counter) {
  return engine.metrics().counter_total("worker", counter);
}

TEST(EngineApi, SprankMemoSolvesOncePerWorkerAndKeepsRecordsByteIdentical) {
  const std::vector<JobSpec> jobs = repeated_quality_jobs(24);
  EngineConfig off;
  off.seed = 5;
  off.threads = 2;
  off.graph_cache_mb = 0;  // every job builds its own graph: nothing to share
  std::string reference;
  {
    Engine engine(off);
    reference = run_lines(engine, jobs);
    EXPECT_EQ(worker_total(engine, "sprank_solves"), jobs.size());
    EXPECT_EQ(worker_total(engine, "sprank_memo_hits"), 0u);
  }

  for (const int workers : {1, 4}) {
    EngineConfig on = off;
    on.threads = workers;
    on.graph_cache_mb = 64;
    Engine engine(on);
    EXPECT_EQ(run_lines(engine, jobs), reference) << "workers=" << workers;
    // A worker solves only while the shared graph's memo is unknown, so at
    // most once each; every other job is a memo hit.
    const std::uint64_t solves = worker_total(engine, "sprank_solves");
    EXPECT_GE(solves, 1u) << "workers=" << workers;
    EXPECT_LE(solves, static_cast<std::uint64_t>(workers)) << "workers=" << workers;
    EXPECT_EQ(solves + worker_total(engine, "sprank_memo_hits"), jobs.size())
        << "workers=" << workers;
  }
}

TEST(EngineApi, AnalyzeSprankSharesTheMemoWithMatchJobs) {
  EngineConfig config;
  config.threads = 1;
  config.seed = 5;
  Engine engine(config);
  const auto run = [&](const std::string& line) {
    return engine.submit(parse_job_spec_line(line)).get();
  };

  // Analysis first, then a match job on the same resident graph.
  const JobResult probe = run("input=gen:er:n=1024,deg=3,seed=6 kind=analyze algo=sprank");
  ASSERT_TRUE(probe.ok) << probe.error;
  EXPECT_EQ(probe.result.sprank,
            sprank(build_graph(parse_graph_spec("gen:er:n=1024,deg=3,seed=6"), 0)));
  EXPECT_EQ(worker_total(engine, "sprank_solves"), 1u);
  const JobResult match = run("input=gen:er:n=1024,deg=3,seed=6 algo=two_sided iters=3");
  ASSERT_TRUE(match.ok) << match.error;
  EXPECT_EQ(match.result.sprank, probe.result.sprank);
  EXPECT_EQ(worker_total(engine, "sprank_solves"), 1u);
  EXPECT_EQ(worker_total(engine, "sprank_memo_hits"), 1u);

  // And the other way round on a second instance.
  const JobResult match2 = run("input=gen:er:n=1024,deg=3,seed=7 algo=one_sided iters=3");
  const JobResult probe2 = run("input=gen:er:n=1024,deg=3,seed=7 kind=analyze algo=sprank");
  ASSERT_TRUE(match2.ok && probe2.ok);
  EXPECT_EQ(probe2.result.sprank, match2.result.sprank);
  EXPECT_EQ(worker_total(engine, "sprank_solves"), 2u);
  EXPECT_EQ(worker_total(engine, "sprank_memo_hits"), 2u);

  // Exact pipelines and quality=0 jobs neither solve nor hit.
  (void)run("input=gen:er:n=1024,deg=3,seed=7 algo=hopcroft_karp");
  (void)run("input=gen:er:n=1024,deg=3,seed=7 algo=two_sided quality=0");
  EXPECT_EQ(worker_total(engine, "sprank_solves"), 2u);
  EXPECT_EQ(worker_total(engine, "sprank_memo_hits"), 2u);
}

TEST(EngineApi, AnalyzeDmAndKoenigFillTheSprankMemo) {
  // Every job that ends exact remembers |M| on the resident graph: the
  // analyses' one solve, the exact rows and an augmented heuristic alike.
  // So whichever comes first, a later quality job hits the memo and the
  // graph is solved at most once.
  const std::string input = "input=gen:er:n=1024,deg=3,seed=6 ";
  const vid_t expected = sprank(build_graph(parse_graph_spec("gen:er:n=1024,deg=3,seed=6"), 0));
  for (const std::string first :
       {"kind=analyze algo=dm", "kind=analyze algo=koenig", "kind=analyze algo=sprank",
        "algo=push_relabel", "algo=hopcroft_karp", "algo=mc21",
        "algo=one_sided iters=3 augment=1"}) {
    EngineConfig config;
    config.threads = 1;
    config.seed = 5;
    Engine engine(config);
    const auto run = [&](const std::string& line) {
      return engine.submit(parse_job_spec_line(input + line)).get();
    };
    const JobResult probe = run(first);
    ASSERT_TRUE(probe.ok) << first << ": " << probe.error;
    EXPECT_LE(worker_total(engine, "sprank_solves"), 1u) << first;
    const std::uint64_t solves = worker_total(engine, "sprank_solves");
    const JobResult match = run("algo=two_sided iters=3");
    ASSERT_TRUE(match.ok) << first << ": " << match.error;
    EXPECT_EQ(match.result.sprank, expected) << first;
    EXPECT_EQ(match.result.sprank_source, SprankSource::kMemo) << first;
    EXPECT_EQ(worker_total(engine, "sprank_solves"), solves) << first;
    EXPECT_EQ(worker_total(engine, "sprank_memo_hits"), 1u) << first;
  }
}

// --------------------------------------------------------- scaling memo ---

/// Repeated match jobs on two pinned instances mixing scaled algorithms,
/// scaling keys (SK and Ruiz, two iteration counts), identity scaling and
/// an algorithm that ignores scaling. Returns the jobs; `scaled` receives
/// how many of them run a scaling.
std::vector<JobSpec> repeated_scaling_jobs(std::uint64_t& scaled) {
  const char* const lines[] = {
      "algo=two_sided iters=5",        "algo=one_sided iters=5 quality=0",
      "algo=k_out k=2 iters=5",        "algo=two_sided scaling=ruiz iters=4",
      "algo=karp_sipser",              "algo=one_sided iters=0",
      "algo=two_sided iters=3 quality=0",
  };
  std::vector<JobSpec> jobs;
  scaled = 0;
  for (int round = 0; round < 4; ++round)
    for (const char* instance : {"gen:er:n=1024,deg=4,seed=3", "gen:powerlaw:n=768,seed=4"})
      for (const char* line : lines) {
        jobs.push_back(parse_job_spec_line("input=" + std::string(instance) + " " + line));
        jobs.back().name = "s" + std::to_string(jobs.size());
        const PipelineConfig& p = jobs.back().pipeline;
        if (find_algorithm(p.algorithm).uses_scaling() && p.scaling_iterations > 0) ++scaled;
      }
  return jobs;
}

TEST(EngineApi, ScalingMemoKeepsRecordsByteIdenticalAndCountsHits) {
  std::uint64_t scaled = 0;
  const std::vector<JobSpec> jobs = repeated_scaling_jobs(scaled);
  EngineConfig off;
  off.seed = 11;
  off.threads = 2;
  off.graph_cache_mb = 0;  // every job builds its own graph: nothing to share
  std::string reference;
  {
    Engine engine(off);
    reference = run_lines(engine, jobs);
    EXPECT_EQ(worker_total(engine, "scaling_solves"), scaled);
    EXPECT_EQ(worker_total(engine, "scaling_memo_hits"), 0u);
  }

  for (const int workers : {1, 4}) {
    EngineConfig on = off;
    on.threads = workers;
    on.graph_cache_mb = 64;
    Engine engine(on);
    EXPECT_EQ(run_lines(engine, jobs), reference) << "workers=" << workers;
    const std::uint64_t solves = worker_total(engine, "scaling_solves");
    const std::uint64_t hits = worker_total(engine, "scaling_memo_hits");
    EXPECT_EQ(solves + hits, scaled) << "workers=" << workers;
    EXPECT_GT(hits, 0u) << "workers=" << workers;
    EXPECT_LE(solves + hits, worker_total(engine, "jobs_run")) << "workers=" << workers;
  }
}

TEST(EngineApi, ServeShapeRoundTripMatchesBatch) {
  // The --serve loop at API level: parse lines one by one, submit with the
  // explicit line index, collect completion-ordered output, compare as a
  // set against the batch run (completion order is nondeterministic with
  // more than one worker; bytes per record must match exactly).
  std::istringstream spec(
      "input=gen:er:n=512,deg=4 algo=two_sided iters=5\n"
      "input=gen:er:n=512,deg=4 algo=one_sided iters=5\n"
      "input=gen:mesh:nx=24 algo=one_sided augment=1\n"
      "input=gen:planted:n=512 algo=hopcroft_karp\n");
  const std::vector<JobSpec> jobs = parse_job_specs(spec);

  EngineConfig config;
  config.threads = 4;
  config.seed = 5;
  Engine engine(config);
  const std::vector<JobResult> batch = engine.run_collect(jobs);

  std::mutex mutex;
  std::multiset<std::string> served;
  std::atomic<std::size_t> pending{jobs.size()};
  std::promise<void> all_done;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobSpec job = jobs[i];
    if (job.name.empty()) job.name = "job" + std::to_string(i);
    engine.submit(
        std::move(job),
        [&](JobResult&& r) {
          {
            std::lock_guard<std::mutex> lock(mutex);
            served.insert(to_json_line(r, false));
          }
          if (pending.fetch_sub(1) == 1) all_done.set_value();
        },
        i);
  }
  all_done.get_future().wait();

  std::multiset<std::string> expected;
  for (const JobResult& r : batch) expected.insert(to_json_line(r, false));
  EXPECT_EQ(served, expected);
}

// ------------------------------------------------------- store lifecycle ---

class EngineStoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = testing::scratch_dir("bmh_engine_store_");
    fs::remove_all(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_;
};

TEST_F(EngineStoreTest, PruneEvictsLeastRecentlyUsedFilesUnderBudget) {
  GraphStore store(dir_);
  // Five distinct instances, spilled oldest-first with distinct mtimes.
  // (ER instances differ slightly in edge count per seed, so file sizes
  // are tracked per key.)
  std::vector<std::string> keys;
  std::vector<std::size_t> file_bytes;
  for (int i = 0; i < 5; ++i) {
    const GraphSpec spec =
        parse_graph_spec("gen:er:n=256,deg=4,seed=" + std::to_string(i));
    const BipartiteGraph g = build_graph(spec, 1);
    keys.push_back(canonical_graph_key(spec, 1));
    ASSERT_TRUE(store.spill(keys.back(), g));
    file_bytes.push_back(serialized_graph_bytes(g, keys.back()));
    // Distinct mtimes so the LRU order is unambiguous on coarse clocks.
    const auto stamp =
        fs::last_write_time(store.path_for(keys.back())) - std::chrono::seconds(5 - i);
    fs::last_write_time(store.path_for(keys.back()), stamp);
  }

  // A load touches its file: key 0 becomes the most recently used.
  ASSERT_NE(store.try_load(keys[0]), nullptr);

  // Budget for ~2 files: the pruner must keep the touched key 0 and the
  // newest spill (key 4), evicting the stale middle.
  const std::size_t freed =
      store.prune(file_bytes[0] + file_bytes[4] + file_bytes[1] / 2);
  EXPECT_EQ(freed, file_bytes[1] + file_bytes[2] + file_bytes[3]);
  EXPECT_EQ(store.stats().pruned, 3u);
  EXPECT_TRUE(fs::exists(store.path_for(keys[0])));
  EXPECT_TRUE(fs::exists(store.path_for(keys[4])));
  for (int i = 1; i <= 3; ++i)
    EXPECT_FALSE(fs::exists(store.path_for(keys[static_cast<std::size_t>(i)]))) << i;

  // A pruned key degrades to a miss and can be re-spilled.
  EXPECT_EQ(store.try_load(keys[1]), nullptr);
  EXPECT_TRUE(
      store.spill(keys[1], build_graph(parse_graph_spec("gen:er:n=256,deg=4,seed=1"), 1)));
  EXPECT_NE(store.try_load(keys[1]), nullptr);
}

TEST_F(EngineStoreTest, SpillBudgetPrunesAutomaticallyAndFsyncSpills) {
  GraphStore::Options options;
  options.fsync = true;  // exercise the durability path end to end
  const GraphSpec probe = parse_graph_spec("gen:er:n=256,deg=4,seed=0");
  const std::size_t one_file =
      serialized_graph_bytes(build_graph(probe, 1), canonical_graph_key(probe, 1));
  options.max_bytes = 2 * one_file + one_file / 2;
  GraphStore store(dir_, options);

  for (int i = 0; i < 6; ++i) {
    const GraphSpec spec =
        parse_graph_spec("gen:er:n=256,deg=4,seed=" + std::to_string(i));
    ASSERT_TRUE(store.spill(canonical_graph_key(spec, 1), build_graph(spec, 1)));
  }
  const GraphStore::Stats stats = store.stats();
  EXPECT_EQ(stats.spills, 6u);
  EXPECT_GE(stats.pruned, 3u);
  EXPECT_EQ(stats.errors_total(), 0u);

  std::size_t resident_bytes = 0;
  std::size_t resident_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    resident_bytes += entry.file_size();
    ++resident_files;
  }
  EXPECT_LE(resident_bytes, options.max_bytes);
  EXPECT_EQ(resident_files, 6u - stats.pruned);
}

TEST_F(EngineStoreTest, StaleSpillTemporariesAreSweptButFreshOnesSurvive) {
  // A crashed spiller's temporary is outside the .bmg budget; the opening
  // scan and every prune must reclaim it once it is clearly abandoned,
  // while a concurrent spiller's fresh temporary is never raced.
  fs::create_directories(dir_);
  const std::string stale = dir_ + "/deadbeef00000000.bmg.tmp.1234.0";
  const std::string fresh = dir_ + "/deadbeef00000001.bmg.tmp.5678.0";
  std::ofstream(stale) << "half-written spill";
  std::ofstream(fresh) << "in-flight spill";
  fs::last_write_time(stale, fs::file_time_type::clock::now() - std::chrono::hours(1));

  GraphStore store(dir_);  // the opening scan sweeps the stale orphan
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(fresh));

  // And so does prune, for orphans appearing while the store is live.
  std::ofstream(stale) << "another orphan";
  fs::last_write_time(stale, fs::file_time_type::clock::now() - std::chrono::hours(1));
  (void)store.prune(1 << 20);
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_TRUE(fs::exists(fresh));
  EXPECT_EQ(store.stats().pruned, 0u);  // temporaries are not budget prunes
}

TEST_F(EngineStoreTest, EngineConfigWiresBudgetAndSecondBatchServesFromStore) {
  EngineConfig config;
  config.seed = 3;
  config.graph_store_dir = dir_;
  config.store_budget_mb = 64;  // roomy: nothing should be pruned
  config.store_fsync = true;
  std::istringstream in(
      "input=gen:er:n=256,deg=4,seed=1 algo=greedy\n"
      "input=gen:er:n=256,deg=4,seed=2 algo=greedy\n");
  const std::vector<JobSpec> jobs = parse_job_specs(in);

  std::string first_jsonl;
  {
    Engine engine(config);
    ASSERT_NE(engine.store(), nullptr);
    EXPECT_EQ(engine.store()->options().max_bytes, config.store_budget_mb << 20);
    EXPECT_TRUE(engine.store()->options().fsync);
    first_jsonl = jsonl(engine.run_collect(jobs));
    EXPECT_EQ(engine.store()->stats().spills, 2u);
    EXPECT_EQ(engine.store()->stats().pruned, 0u);
  }

  // "Restarted process": a fresh engine over the warm directory serves
  // byte-identical results with zero cold builds — the store absorbs every
  // memory miss.
  Engine restarted(config);
  EXPECT_EQ(jsonl(restarted.run_collect(jobs)), first_jsonl);
  const Engine::Stats stats = restarted.stats();
  EXPECT_EQ(stats.cold_builds, 0u);
  EXPECT_EQ(stats.cache.store_hits, 2u);
}

} // namespace
} // namespace bmh
