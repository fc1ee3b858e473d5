/// \file bench_submit.cpp
/// \brief Measures the Engine's single-job submission path — the bounded,
/// mutex-guarded submission queue — and records the results in
/// BENCH_submit.json:
///
///   1. open-loop engine submit throughput at 1/2/4/8 producer threads,
///      with queue-wait p50/p99 from the engine's own histograms, compared
///      against the numbers of an earlier unbounded mutex queue recorded in
///      the `baseline` field (measured with this same open-loop harness;
///      that path allocated a queue node per submit);
///   2. bounded-queue backpressure — with the default queue depth the
///      submit rate converges to the drain rate by construction;
///   3. allocation-freedom — with the worker parked, a warm single-job
///      submit performs zero heap allocations (global counter proof).
///
/// Knob: BMH_SUBMIT_JOBS (default 20000).

#define BMH_COUNT_ALLOCS

#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <mutex>
#include <thread>

namespace {

using namespace bmh;

struct SubmitResult {
  double submit_ns_per_op = 0.0;
  double submit_ops_per_s = 0.0;
  double end_to_end_jobs_per_s = 0.0;
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
};

/// Open-loop engine submit: `producers` threads blast `jobs` tiny cached
/// jobs through the callback submit. `depth` sized to the burst isolates
/// ingest cost (the queue never backpressures); the default depth measures
/// the bounded queue's converge-to-drain-rate behaviour instead.
SubmitResult engine_submit_throughput(int producers, int jobs,
                                      std::size_t depth) {
  EngineConfig config;
  config.threads = 1;
  config.seed = 1;
  config.submit_queue_depth = depth;
  Engine engine(config);
  const JobSpec job =
      parse_job_spec_line("input=gen:cycle:n=64 algo=greedy quality=0 seed=1");
  std::atomic<int> done{0};
  const auto count = [&done](JobResult&&) {
    done.fetch_add(1, std::memory_order_relaxed);
  };
  {  // warm the cache and the worker
    JobSpec warm = job;
    engine.submit(std::move(warm), count, 0);
    while (done.load(std::memory_order_acquire) == 0) std::this_thread::yield();
    done.store(0);
  }
  const int per = jobs / producers;
  Timer timer;
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p)
    threads.emplace_back([&engine, &job, &count, per] {
      for (int i = 0; i < per; ++i) {
        JobSpec copy = job;
        engine.submit(std::move(copy), count, 0);
      }
    });
  for (auto& t : threads) t.join();
  const double submit_seconds = timer.seconds();
  const int total = per * producers;
  while (done.load(std::memory_order_acquire) < total) std::this_thread::yield();
  const double total_seconds = timer.seconds();

  SubmitResult out;
  out.submit_ns_per_op = submit_seconds / total * 1e9;
  out.submit_ops_per_s = total / submit_seconds;
  out.end_to_end_jobs_per_s = total / total_seconds;
  const obs::HistogramData wait =
      engine.metrics().histogram_merged("worker", "queue_wait");
  out.queue_wait_p50_ms = static_cast<double>(wait.p50_ns()) / 1e6;
  out.queue_wait_p99_ms = static_cast<double>(wait.p99_ns()) / 1e6;
  return out;
}

/// Blocked-worker allocation proof: park the single worker inside a
/// delivery callback, then count heap allocations across warm try_submit
/// calls — must be zero.
std::uint64_t allocations_per_warm_submit_burst(int burst) {
  EngineConfig config;
  config.threads = 1;
  config.submit_queue_depth = static_cast<std::size_t>(burst);
  Engine engine(config);
  std::mutex mutex;
  std::condition_variable cv;
  bool parked = false;
  bool release = false;
  engine.submit(
      parse_job_spec_line("input=gen:cycle:n=64 algo=greedy quality=0 seed=1"),
      [&](JobResult&&) {
        std::unique_lock<std::mutex> lock(mutex);
        parked = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
      });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return parked; });
  }
  std::atomic<int> done{0};
  std::vector<JobSpec> jobs;
  std::vector<std::function<void(JobResult&&)>> callbacks;
  for (int i = 0; i < burst; ++i) {
    jobs.push_back(
        parse_job_spec_line("input=gen:cycle:n=64 algo=greedy quality=0 seed=1"));
    callbacks.emplace_back(
        [&done](JobResult&&) { done.fetch_add(1, std::memory_order_relaxed); });
  }
  const bench::AllocStats before = bench::alloc_stats();
  for (int i = 0; i < burst; ++i)
    (void)engine.try_submit(std::move(jobs[static_cast<std::size_t>(i)]),
                            std::move(callbacks[static_cast<std::size_t>(i)]));
  const bench::AllocStats after = bench::alloc_stats();
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
    cv.notify_all();
  }
  while (done.load(std::memory_order_acquire) < burst) std::this_thread::yield();
  return after.allocations - before.allocations;
}

/// The earlier mutex path's numbers, measured with this same open-loop
/// harness on a 1-core container (unbounded queue: every submit took the
/// engine mutex and allocated its queue node). Recorded here because that
/// path no longer exists to be built.
struct BaselinePoint {
  int producers;
  double submit_ns_per_op;
  double submit_ops_per_s;
};
constexpr BaselinePoint kMutexBaseline[] = {
    {1, 1209.0, 827438.0},
    {2, 983.0, 1017099.0},
    {4, 828.0, 1208147.0},
    {8, 1088.0, 918995.0},
};

} // namespace

int main() {
  const int jobs = static_cast<int>(env_int("BMH_SUBMIT_JOBS", 20000));

  std::cout << "bench_submit: engine submission-path throughput ("
            << num_procs() << " cores)\n\n";

  std::string engine_json = "[";
  double best_speedup_at_4plus = 0.0;
  for (const BaselinePoint& base : kMutexBaseline) {
    // Depth sized to the burst isolates ingest cost, comparable to the
    // unbounded pre-PR queue which never pushed back on producers.
    const SubmitResult r = engine_submit_throughput(
        base.producers, jobs, std::bit_ceil(static_cast<std::size_t>(jobs) * 2));
    const double speedup = r.submit_ops_per_s / base.submit_ops_per_s;
    if (base.producers >= 4) best_speedup_at_4plus =
        std::max(best_speedup_at_4plus, speedup);
    std::cout << "engine producers=" << base.producers << ": "
              << r.submit_ns_per_op << " ns/submit (" << r.submit_ops_per_s
              << "/s, baseline " << base.submit_ops_per_s << "/s, " << speedup
              << "x), queue-wait p99 " << r.queue_wait_p99_ms << " ms\n";
    if (engine_json.size() > 1) engine_json += ", ";
    engine_json += "{\"producers\": " + std::to_string(base.producers);
    engine_json +=
        ", \"submit_ns_per_op\": " + json_number(r.submit_ns_per_op);
    engine_json +=
        ", \"submit_ops_per_s\": " + json_number(r.submit_ops_per_s);
    engine_json += ", \"end_to_end_jobs_per_s\": " +
                   json_number(r.end_to_end_jobs_per_s);
    engine_json +=
        ", \"queue_wait_p50_ms\": " + json_number(r.queue_wait_p50_ms);
    engine_json +=
        ", \"queue_wait_p99_ms\": " + json_number(r.queue_wait_p99_ms);
    engine_json += ", \"baseline\": {\"submit_ns_per_op\": " +
                   json_number(base.submit_ns_per_op) +
                   ", \"submit_ops_per_s\": " +
                   json_number(base.submit_ops_per_s) + "}";
    engine_json += ", \"speedup_vs_baseline\": " + json_number(speedup) + "}";
  }
  engine_json += "]";

  // Bounded-queue backpressure: at the default depth a sustained overload
  // converges to the drain rate — the submit throughput IS the serving
  // throughput, which is the point of a bounded queue.
  const SubmitResult bounded = engine_submit_throughput(4, jobs, 0);
  std::cout << "bounded (default depth) producers=4: "
            << bounded.submit_ops_per_s << " submits/s vs "
            << bounded.end_to_end_jobs_per_s << " jobs/s drained\n";

  const std::uint64_t burst_allocs = allocations_per_warm_submit_burst(256);
  std::cout << "allocations per 256 warm submits: " << burst_allocs << "\n";

  std::ofstream json("BENCH_submit.json");
  json << "{\n  \"bench\": \"submit\",\n";
  json << "  \"config\": {\"jobs\": " << jobs 
       << ", \"engine_threads\": 1, \"job\": \"gen:cycle:n=64 greedy quality=0\"},\n";
  json << "  \"machine_cores\": " << num_procs() << ",\n";
  json << "  \"engine_submit\": " << engine_json << ",\n";
  json << "  \"bounded_backpressure\": {\"producers\": 4, \"submit_ops_per_s\": "
       << json_number(bounded.submit_ops_per_s)
       << ", \"end_to_end_jobs_per_s\": "
       << json_number(bounded.end_to_end_jobs_per_s)
       << ", \"note\": \"default queue depth: sustained overload converges to the drain rate — the bounded queue pushes back instead of buffering without limit like the earlier unbounded queue\"},\n";
  json << "  \"allocations_per_warm_submit\": "
       << (static_cast<double>(burst_allocs) / 256.0) << ",\n";
  json << "  \"zero_alloc_claim_holds\": "
       << (burst_allocs == 0 ? "true" : "false") << ",\n";
  json << "  \"speedup_target_met\": "
       << (best_speedup_at_4plus >= 2.0 ? "true" : "false") << ",\n";
  json << "  \"baseline_source\": \"the earlier unbounded mutex+CV engine queue (a heap node per submit), same open-loop harness, recorded on a 1-core container; that path no longer builds, so it cannot be re-measured here\",\n";
  json << "  \"hardware_note\": \"measured on a " << num_procs()
       << "-core machine with one engine worker: the producers>=2 rows "
          "measure contention on the queue mutex, and the baseline comes "
          "from different hardware, so speedup_vs_baseline is indicative "
          "only\"\n";
  json << "}\n";
  std::cout << "wrote BENCH_submit.json\n";
  return 0;
}
