/// \file test_obs.cpp
/// \brief Tests for the observability subsystem (src/obs/): histogram
/// bucket geometry and quantile estimation against known distributions,
/// seqlock snapshot consistency under a concurrent writer (the sanitizer CI
/// job runs this under ASan+UBSan), trace span nesting and ring-buffer
/// wraparound, exporter golden output, and the engine integration — worker
/// domain totals vs Engine::stats(), cache counters vs GraphCache::Stats.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "test_helpers.hpp"

namespace bmh {
namespace {

using obs::HistogramData;
using obs::kHistBuckets;

// ------------------------------------------------------ bucket geometry ---

TEST(ObsHistogram, BucketBoundaries) {
  // Underflow bucket: everything below 2^kHistMinShift ns.
  EXPECT_EQ(obs::histogram_bucket_index(0), 0);
  EXPECT_EQ(obs::histogram_bucket_index(127), 0);
  EXPECT_EQ(obs::histogram_bucket_index(128), 1);
  // Overflow bucket: everything at or past 2^kHistMaxShift ns (~68.7 s).
  EXPECT_EQ(obs::histogram_bucket_index(std::uint64_t{1} << obs::kHistMaxShift),
            kHistBuckets - 1);
  EXPECT_EQ(obs::histogram_bucket_index(~std::uint64_t{0}), kHistBuckets - 1);

  // Every interior bucket is the half-open interval [lower, upper): its
  // bounds are exact integers, and the index function maps lower and
  // upper-1 back to the bucket, upper to the next one.
  for (int b = 1; b < kHistBuckets - 1; ++b) {
    const auto lower = static_cast<std::uint64_t>(obs::histogram_bucket_lower_ns(b));
    const auto upper = static_cast<std::uint64_t>(obs::histogram_bucket_upper_ns(b));
    ASSERT_LT(lower, upper);
    EXPECT_EQ(obs::histogram_bucket_index(lower), b) << "lower of bucket " << b;
    EXPECT_EQ(obs::histogram_bucket_index(upper - 1), b) << "upper-1 of bucket " << b;
    EXPECT_EQ(obs::histogram_bucket_index(upper), b + 1) << "upper of bucket " << b;
  }

  // Log-scale resolution: each interior bucket is at most 1/8 of its octave
  // wide, so the worst-case relative quantization error is ~12.5%.
  for (int b = 2; b < kHistBuckets - 1; ++b) {
    const double lower = obs::histogram_bucket_lower_ns(b);
    const double upper = obs::histogram_bucket_upper_ns(b);
    EXPECT_LE((upper - lower) / lower, 0.126) << "bucket " << b;
  }
}

TEST(ObsHistogram, QuantilesOfKnownDistributions) {
  // Uniform over [100 µs, 1 ms]: quantile q sits at 100µs + q*900µs. The
  // bucketed estimate must land within the ~12.5% bucket resolution.
  HistogramData uniform;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t ns = 100'000 + static_cast<std::uint64_t>(i) * 90;
    uniform.buckets[static_cast<std::size_t>(obs::histogram_bucket_index(ns))]++;
    uniform.count++;
    uniform.sum_ns += ns;
  }
  EXPECT_NEAR(uniform.p50_ns(), 550'000.0, 550'000.0 * 0.15);
  EXPECT_NEAR(uniform.p90_ns(), 910'000.0, 910'000.0 * 0.15);
  EXPECT_NEAR(uniform.p99_ns(), 991'000.0, 991'000.0 * 0.15);
  EXPECT_NEAR(uniform.mean_ns(), 550'000.0, 550'000.0 * 0.01);  // sum is exact

  // A point mass: every quantile reports the containing bucket's range.
  HistogramData point;
  const std::uint64_t value = 1'000'000;
  const int bucket = obs::histogram_bucket_index(value);
  point.buckets[static_cast<std::size_t>(bucket)] = 100;
  point.count = 100;
  point.sum_ns = 100 * value;
  for (const double q : {0.5, 0.9, 0.99}) {
    const double estimate = point.quantile_ns(q);
    EXPECT_GE(estimate, obs::histogram_bucket_lower_ns(bucket));
    EXPECT_LE(estimate, obs::histogram_bucket_upper_ns(bucket));
    (void)q;
  }

  // Empty histogram: quantiles are 0, not NaN.
  EXPECT_EQ(HistogramData{}.p50_ns(), 0.0);
  EXPECT_EQ(HistogramData{}.mean_ns(), 0.0);

  // Overflow bucket clamps to its lower bound instead of interpolating
  // toward infinity.
  HistogramData over;
  over.buckets[static_cast<std::size_t>(kHistBuckets - 1)] = 10;
  over.count = 10;
  EXPECT_EQ(over.p99_ns(), obs::histogram_bucket_lower_ns(kHistBuckets - 1));
}

TEST(ObsHistogram, RecordAndMerge) {
  obs::Histogram h;
  h.record(1000);
  h.record_seconds(0.001);
  const HistogramData a = h.data();
  HistogramData b = a;
  b.merge(a);
  EXPECT_EQ(a.count, 2u);
  EXPECT_EQ(a.sum_ns, 1'001'000u);
  EXPECT_EQ(b.count, 4u);
  EXPECT_EQ(b.sum_ns, 2'002'000u);
}

// ------------------------------------------------- domains and snapshots ---

TEST(ObsDomain, CountersGaugesFindOrCreate) {
  obs::MetricDomain domain("test");
  obs::Counter& c = domain.counter("events");
  c.inc();
  c.inc(4);
  // Counters stay live even when the latency layer is disabled: they back
  // the Stats views.
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&domain.counter("events"), &c);  // find, not create

  obs::Gauge& g = domain.gauge("level");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);

  const obs::DomainSnapshot snap = domain.snapshot();
  EXPECT_EQ(snap.counter_or("events"), 5u);
  EXPECT_EQ(snap.gauge_or("level"), 7);
  EXPECT_EQ(snap.counter_or("absent", 42), 42u);
  EXPECT_EQ(snap.histogram("absent"), nullptr);
}

TEST(ObsDomain, SeqlockSnapshotNeverTearsAPublishBurst) {
  // A single-writer domain increments two counters inside every
  // PublishGuard burst; any snapshot must observe them equal. (Without the
  // seqlock a reader could land between the two increments.)
  obs::MetricDomain domain("worker", 0);
  obs::Counter& a = domain.counter("a");
  obs::Counter& b = domain.counter("b");

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 200'000 && !stop.load(std::memory_order_relaxed); ++i) {
      obs::PublishGuard guard(domain);
      a.inc();
      b.inc();
    }
    stop.store(true, std::memory_order_relaxed);
  });

  std::uint64_t last = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const obs::DomainSnapshot snap = domain.snapshot();
    const std::uint64_t va = snap.counter_or("a");
    const std::uint64_t vb = snap.counter_or("b");
    EXPECT_EQ(va, vb);
    EXPECT_GE(va, last);
    last = va;
  }
  writer.join();
  const obs::DomainSnapshot final_snap = domain.snapshot();
  EXPECT_EQ(final_snap.counter_or("a"), 200'000u);
  EXPECT_EQ(final_snap.counter_or("b"), 200'000u);
}

TEST(ObsRegistry, AggregatesAcrossInstances) {
  obs::Registry registry;
  obs::MetricDomain& w0 = registry.create_domain("worker", 0);
  obs::MetricDomain& w1 = registry.create_domain("worker", 1);
  w0.counter("jobs").inc(3);
  w1.counter("jobs").inc(4);
  obs::MetricDomain external("cache");
  external.counter("hits").inc(9);
  registry.attach(&external);

  const obs::Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.domains.size(), 3u);
  EXPECT_EQ(snap.counter_total("worker", "jobs"), 7u);
  EXPECT_EQ(snap.counter_total("cache", "hits"), 9u);

  const obs::Snapshot agg = snap.aggregated();
  ASSERT_EQ(agg.domains.size(), 2u);  // workers merged into one
  EXPECT_EQ(agg.domain("worker")->counter_or("jobs"), 7u);
  EXPECT_EQ(agg.domain("worker")->instance, -1);
}

// ------------------------------------------------------------- tracing ---

TEST(ObsTrace, SpanNestingDepths) {
  obs::TraceJournal journal(16);
  obs::bind_thread_journal(&journal);
  {
    BMH_SPAN("outer");
    {
      BMH_SPAN("inner");
    }
  }
  obs::bind_thread_journal(nullptr);

  const std::vector<obs::TraceEvent> events = journal.events();
  // Spans record on scope exit: inner first, then outer, depths nested.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[1].start_ns + events[1].dur_ns,
            events[0].start_ns + events[0].dur_ns);
}

TEST(ObsTrace, RingBufferWrapsKeepingNewest) {
  obs::TraceJournal journal(8);  // power of two already
  EXPECT_EQ(journal.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) journal.record("event", i * 10, 5, 1);

  EXPECT_EQ(journal.recorded(), 20u);
  const std::vector<obs::TraceEvent> events = journal.events();
  ASSERT_EQ(events.size(), 8u);  // oldest 12 wrapped away
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, 13 + i);  // ids are 1-based recording order
    EXPECT_EQ(events[i].start_ns, (12 + i) * 10);
  }
}

TEST(ObsTrace, UnboundThreadRecordsNothing) {
  // No journal bound: spans are safe no-ops (library users calling kernels
  // directly never pay more than one thread-local load).
  BMH_SPAN("orphan");
  obs::record_phase("orphan_phase", 0, 1);
  SUCCEED();
}

// ----------------------------------------------------------- exporters ---

/// A hand-built snapshot, independent of live recording.
obs::Snapshot golden_snapshot() {
  obs::Snapshot snap;
  obs::DomainSnapshot d;
  d.name = "demo";
  d.instance = 0;
  d.counters.emplace_back("events", 3);
  d.gauges.emplace_back("level", -2);
  HistogramData h;
  const int bucket = obs::histogram_bucket_index(1'000'000);  // 1 ms
  h.buckets[static_cast<std::size_t>(bucket)] = 2;
  h.count = 2;
  h.sum_ns = 2'000'000;
  d.histograms.emplace_back("latency", h);
  snap.domains.push_back(std::move(d));
  return snap;
}

TEST(ObsExport, PrometheusGolden) {
  const std::string text = obs::prometheus_text(golden_snapshot());
  const double upper =
      obs::histogram_bucket_upper_ns(obs::histogram_bucket_index(1'000'000)) / 1e9;
  std::string expected;
  expected += "# TYPE bmh_demo_events_total counter\n";
  expected += "bmh_demo_events_total 3\n";
  expected += "# TYPE bmh_demo_level gauge\n";
  expected += "bmh_demo_level -2\n";
  expected += "# TYPE bmh_demo_latency_seconds histogram\n";
  expected += "bmh_demo_latency_seconds_bucket{le=\"0.001048576\"} 2\n";
  expected += "bmh_demo_latency_seconds_bucket{le=\"+Inf\"} 2\n";
  expected += "bmh_demo_latency_seconds_sum 0.002\n";
  expected += "bmh_demo_latency_seconds_count 2\n";
  ASSERT_NEAR(upper, 0.001048576, 1e-12);  // pin the bucket the golden assumes
  EXPECT_EQ(text, expected);
}

TEST(ObsExport, JsonLinesGoldenAndParseable) {
  const std::string text = obs::json_lines_text(golden_snapshot(), 1234);
  std::string expected;
  expected +=
      "{\"ts_ms\":1234,\"domain\":\"demo\",\"metric\":\"events\","
      "\"type\":\"counter\",\"value\":3}\n";
  expected +=
      "{\"ts_ms\":1234,\"domain\":\"demo\",\"metric\":\"level\","
      "\"type\":\"gauge\",\"value\":-2}\n";
  EXPECT_EQ(text.substr(0, expected.size()), expected);
  // The histogram line carries count/sum and the quantile estimates.
  EXPECT_NE(text.find("\"metric\":\"latency\",\"type\":\"histogram\",\"count\":2"),
            std::string::npos);
  EXPECT_NE(text.find("\"sum_seconds\":0.002"), std::string::npos);
  EXPECT_NE(text.find("\"p99_seconds\":"), std::string::npos);
  // Every line is one JSON object (cheap structural check: braces balance,
  // one object per line).
  std::size_t lines = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    EXPECT_EQ(text[pos], '{');
    EXPECT_EQ(text[eol - 1], '}');
    pos = eol + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
}

TEST(ObsExport, SanitizesMetricNames) {
  obs::Snapshot snap;
  obs::DomainSnapshot d;
  d.name = "weird-domain";
  d.counters.emplace_back("odd.metric", 1);
  snap.domains.push_back(std::move(d));
  const std::string text = obs::prometheus_text(snap);
  EXPECT_NE(text.find("bmh_weird_domain_odd_metric_total 1"), std::string::npos);
}

TEST(ObsExport, TraceJsonLines) {
  std::vector<obs::TraceEvent> events(1);
  events[0].name = "match";
  events[0].start_ns = 10;
  events[0].dur_ns = 5;
  events[0].depth = 2;
  events[0].id = 7;
  EXPECT_EQ(obs::trace_json_lines(events),
            "{\"record\":\"span\",\"name\":\"match\",\"id\":7,\"depth\":2,"
            "\"start_ns\":10,\"dur_ns\":5}\n");
}

// --------------------------------------------------- engine integration ---

TEST(ObsEngine, MetricsMatchStatsAndStages) {
  EngineConfig config;
  config.threads = 2;
  config.graph_cache_mb = 64;
  Engine engine(config);

  std::vector<JobSpec> jobs;
  for (int i = 0; i < 6; ++i) {
    JobSpec job;
    job.name = "j" + std::to_string(i);
    job.input = parse_graph_spec("gen:er:n=512,deg=4");
    job.seed = 7;  // one shared instance: 1 miss, 5 hits (modulo racing)
    jobs.push_back(job);
  }
  const std::vector<JobResult> results = engine.run_collect(jobs);
  ASSERT_EQ(results.size(), 6u);
  for (const JobResult& r : results) EXPECT_TRUE(r.ok) << r.error;

  const Engine::Stats stats = engine.stats();
  EXPECT_EQ(stats.jobs_run, 6u);
  EXPECT_EQ(stats.jobs_failed, 0u);

  const obs::Snapshot snap = engine.metrics();
  // stats() is a view over these same instruments.
  EXPECT_EQ(snap.counter_total("worker", "jobs_run"), stats.jobs_run);
  EXPECT_EQ(snap.counter_total("worker", "jobs_failed"), stats.jobs_failed);
  // The cache domain and the legacy Stats struct read the same counters.
  ASSERT_NE(engine.cache(), nullptr);
  const GraphCache::Stats cache_stats = engine.cache()->stats();
  EXPECT_EQ(snap.counter_total("graph_cache", "hits"), cache_stats.hits);
  EXPECT_EQ(snap.counter_total("graph_cache", "misses"), cache_stats.misses);
  EXPECT_EQ(cache_stats.hits + cache_stats.misses, 6u);

  // Every job recorded exactly one sample into the per-stage and per-job
  // histograms, and the latency totals are coherent.
  EXPECT_EQ(snap.histogram_merged("worker", "job").count, 6u);
  EXPECT_EQ(snap.histogram_merged("worker", "queue_wait").count, 6u);
  EXPECT_EQ(snap.histogram_merged("worker", "graph_acquire").count, 6u);
  EXPECT_EQ(snap.histogram_merged("worker", "stage_match").count, 6u);
  EXPECT_GT(snap.histogram_merged("worker", "job").sum_ns, 0u);

  // The trace journals saw the pipeline stages.
  const std::vector<obs::TraceEvent> events = engine.trace_events();
  EXPECT_FALSE(events.empty());
  bool saw_match = false;
  for (const obs::TraceEvent& e : events)
    if (std::string_view(e.name) == "match") saw_match = true;
  EXPECT_TRUE(saw_match);
}

TEST(ObsEngine, SnapshotsAreConsistentWhileServing) {
  // Satellite of the stats()-consistency fix: while jobs run, every
  // snapshot's per-worker domain must be post-burst consistent —
  // jobs_failed <= jobs_run, and the job histogram count equals jobs_run
  // for that worker.
  EngineConfig config;
  config.threads = 2;
  Engine engine(config);

  std::vector<JobSpec> jobs;
  for (int i = 0; i < 40; ++i) {
    JobSpec job;
    job.name = "s" + std::to_string(i);
    job.input = parse_graph_spec("gen:er:n=256,deg=3");
    jobs.push_back(job);
  }

  std::atomic<bool> done{false};
  std::thread runner([&] {
    (void)engine.run(jobs, nullptr);
    done.store(true);
  });
  while (!done.load()) {
    const obs::Snapshot snap = engine.metrics();
    for (const obs::DomainSnapshot& d : snap.domains) {
      if (d.name != "worker") continue;
      const std::uint64_t run = d.counter_or("jobs_run");
      EXPECT_LE(d.counter_or("jobs_failed"), run);
      // The Engine constructor materializes every worker instrument before
      // the pool starts, so the histogram exists in every snapshot. EXPECT
      // (not ASSERT): an early return here would skip runner.join().
      const obs::HistogramData* job_hist = d.histogram("job");
      EXPECT_NE(job_hist, nullptr) << "worker " << d.instance;
      if (job_hist != nullptr) {
        EXPECT_EQ(job_hist->count, run) << "worker " << d.instance;
      }
    }
  }
  runner.join();
  EXPECT_EQ(engine.stats().jobs_run, 40u);
}

} // namespace
} // namespace bmh
