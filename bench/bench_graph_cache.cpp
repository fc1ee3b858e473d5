/// \file bench_graph_cache.cpp
/// \brief Certifies the graph cache's claims and records them in
/// BENCH_graph_cache.json:
///
///   1. allocation-freedom — with the global allocation counter enabled, a
///      warm cache lookup (the per-job graph materialization of a
///      repeated-spec batch) performs zero heap allocations;
///   2. throughput — serving repeated-spec batches from the cache beats
///      rebuilding every job's graph from its spec (the PR 2 `engine_batch`
///      baseline in BENCH_workspace.json), closing the gap toward the
///      pipeline-hot-path ceiling;
///   3. warm engine, second batch — a long-lived bmh::Engine re-running a
///      batch it has seen serves every graph from its resident cache:
///      zero cold builds, recorded with the second batch's jobs/s;
///   4. cold process, warm store — after spilling to a GraphStore and
///      dropping the in-memory tier (the restart scenario), the batch is
///      re-served from mmap-loaded graphs: jobs/s recorded next to the
///      store hit counters, and the mapped load itself performs no
///      edge-array copies (its heap growth is a small constant, asserted
///      against the graph's actual edge bytes);
///   5. quality on, warm — the same batch with compute_quality: the first
///      job per worker on the resident graph solves sprank and leaves it on
///      the graph, so warm batches solve none: jobs/s recorded next to
///      sprank solves per 1000 warm jobs and the jobs/s measured when every
///      job solved sprank;
///   6. scaling memo, warm — section 3's warm batches again, read for the
///      scaling the resident graph carries: the second job on the graph
///      publishes its Sinkhorn–Knopp multipliers, so warm batches solve
///      none: jobs/s recorded next to SK solves per 1000 warm jobs and the
///      jobs/s measured when every job scaled.
///
/// "Repeated-spec" is the shape of real batch traffic: parameter sweeps,
/// seed ensembles and quality suites re-run the same pinned instances, so
/// the batch uses a spec with `seed=` pinned (one instance, many jobs).
///
/// Knobs: BMH_GC_JOBS (default 1000), BMH_GC_WORKERS (default min(8, cores)),
/// BMH_GC_N (default 1024), BMH_GC_REPEATS (default 3).

#define BMH_COUNT_ALLOCS

#include "bench_common.hpp"

#include <filesystem>
#include <fstream>

namespace {

using namespace bmh;

/// One batch pass on a (typically warm) engine; returns jobs/second.
double timed_batch(const std::vector<JobSpec>& jobs, Engine& engine) {
  Timer timer;
  const std::vector<JobResult> results = engine.run_collect(jobs);
  const double seconds = timer.seconds();
  for (const JobResult& r : results)
    if (!r.ok) {
      std::cerr << "FAIL " << r.name << ": " << r.error << '\n';
      std::exit(1);
    }
  return static_cast<double>(jobs.size()) / seconds;
}

} // namespace

int main() {
  std::cout << "Graph cache — allocation-free repeated-spec batches\n"
            << "machine: " << num_procs() << " cores\n\n";

  const int jobs = static_cast<int>(env_int("BMH_GC_JOBS", 1000));
  const int workers =
      static_cast<int>(env_int("BMH_GC_WORKERS", std::min(8, num_procs())));
  const auto n = static_cast<vid_t>(env_int("BMH_GC_N", 1024));
  const int repeats = static_cast<int>(env_int("BMH_GC_REPEATS", 3));

  // The repeated-spec batch: one pinned instance re-run `jobs` times with
  // varying pipeline seeds (per-job derived), exactly a seed-ensemble shape.
  const std::string spec = "gen:er:n=" + std::to_string(n) + ",deg=8,seed=5";
  std::vector<JobSpec> spec_jobs;
  {
    JobSpec job;
    job.input = parse_graph_spec(spec);
    job.pipeline.algorithm = "two_sided";
    job.pipeline.scaling = ScalingMethod::kSinkhornKnopp;
    job.pipeline.scaling_iterations = 5;
    job.pipeline.compute_quality = false;  // serving mode
    for (int i = 0; i < jobs; ++i) {
      job.name = "j" + std::to_string(i);
      spec_jobs.push_back(job);
    }
  }

  // ---- 1. Allocation proof: the warm per-job graph path is free. ----
  GraphCache probe_cache;
  const GraphSpec graph_spec = parse_graph_spec(spec);
  (void)probe_cache.get_or_build(graph_spec, derive_job_seed(3, 0));  // cold build
  const bench::AllocStats a0 = bench::alloc_stats();
  for (int i = 0; i < jobs; ++i)
    (void)probe_cache.get_or_build(graph_spec, derive_job_seed(3, static_cast<std::size_t>(i)));
  const bench::AllocStats a1 = bench::alloc_stats();
  const auto graph_allocs = a1.allocations - a0.allocations;
  const auto graph_live_growth = a1.live_bytes - a0.live_bytes;
  std::cout << "graph path: " << graph_allocs << " allocations / " << jobs
            << " warm cache-served jobs (net heap growth " << graph_live_growth
            << " bytes)\n";

  // ---- 2. Engine batch throughput: cache on vs off. ----
  // Long-lived engines, one per mode: pool, arenas and cache stay warm
  // across the repeats — the serving shape the façade exists for.
  EngineConfig base;
  base.threads = workers;
  base.threads_per_job = 1;
  base.seed = 3;

  Engine engine_on(base);
  EngineConfig off_config = base;
  off_config.graph_cache_mb = 0;
  Engine engine_off(off_config);

  (void)timed_batch(spec_jobs, engine_on);   // warm arenas + cache
  (void)timed_batch(spec_jobs, engine_off);  // warm arenas for the off mode

  double on_best = 0.0, off_best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const double off = timed_batch(spec_jobs, engine_off);
    const double on = timed_batch(spec_jobs, engine_on);
    off_best = std::max(off_best, off);
    on_best = std::max(on_best, on);
    std::cout << "repeat " << r << ": cache-off " << off << " jobs/s, cache-on "
              << on << " jobs/s\n";
  }

  // Allocations per warm job, whole engine batch, cache on (what remains is
  // the retained JobResult record and the JobSpec copied into its submit
  // slot, no longer the graph).
  const bench::AllocStats b0 = bench::alloc_stats();
  const double measured_on = timed_batch(spec_jobs, engine_on);
  const bench::AllocStats b1 = bench::alloc_stats();
  on_best = std::max(on_best, measured_on);
  const double batch_allocs_per_job =
      static_cast<double>(b1.allocations - b0.allocations) / jobs;
  std::cout << "engine batch, cache on: " << batch_allocs_per_job
            << " allocations/job warm (result record + submitted JobSpec copy)\n";

  const GraphCache::Stats stats = engine_on.stats().cache;
  std::cout << "cache: " << stats.hits << " hits, " << stats.misses << " misses, "
            << stats.evictions << " evictions, " << stats.entries
            << " graphs resident\n";

  // Per-job latency distribution of the warm cache-on engine, merged across
  // its workers (every batch it served this session).
  const std::string latency = bench::latency_json(engine_on);
  const obs::HistogramData job_hist =
      engine_on.metrics().histogram_merged("worker", "job");
  std::cout << "cache-on job latency: p50 "
            << static_cast<double>(job_hist.p50_ns()) / 1e6 << " ms, p99 "
            << static_cast<double>(job_hist.p99_ns()) / 1e6 << " ms over "
            << job_hist.count << " jobs\n";

  // ---- 3. Warm engine, second batch: the acceptance scenario — a fresh
  // engine pays the cold builds once, then re-runs the batch purely from
  // its resident cache.
  double warm_engine_best = 0.0;
  std::uint64_t warm_engine_cold_builds = 0;
  std::uint64_t first_batch_cold_builds = 0;
  std::uint64_t first_batch_scalings = 0;
  std::uint64_t warm_scalings = 0;
  std::uint64_t warm_scaling_hits = 0;
  {
    Engine warm_engine(base);
    (void)timed_batch(spec_jobs, warm_engine);  // first batch: cold builds
    first_batch_cold_builds = warm_engine.stats().cold_builds;
    const obs::Snapshot first = warm_engine.metrics();
    first_batch_scalings = first.counter_total("worker", "scaling_solves");
    for (int r = 0; r < repeats; ++r)
      warm_engine_best = std::max(warm_engine_best, timed_batch(spec_jobs, warm_engine));
    warm_engine_cold_builds =
        warm_engine.stats().cold_builds - first_batch_cold_builds;
    const obs::Snapshot warm = warm_engine.metrics();
    warm_scalings = warm.counter_total("worker", "scaling_solves") - first_batch_scalings;
    warm_scaling_hits = warm.counter_total("worker", "scaling_memo_hits") -
                        first.counter_total("worker", "scaling_memo_hits");
  }
  std::cout << "warm engine second batch: " << warm_engine_best
            << " jobs/s, " << warm_engine_cold_builds
            << " cold graph builds (first batch paid "
            << first_batch_cold_builds << ")\n";
  // ---- 6. Scaling memo, warm: read off section 3's engine.
  const double sk_solves_per_1000 = 1000.0 * static_cast<double>(warm_scalings) /
                                    (static_cast<double>(jobs) * repeats);
  std::cout << "scaling memo, warm: " << sk_solves_per_1000
            << " SK solves per 1000 warm jobs (" << warm_scaling_hits
            << " memo hits; first batch solved " << first_batch_scalings << ")\n";

  // ---- 4. Cold process, warm store: spill, drop the memory tier, re-serve.
  const std::string store_dir = "bench_graph_store.tmp";
  std::filesystem::remove_all(store_dir);
  GraphCache::Options store_options;
  store_options.store_dir = store_dir;
  {
    // "First process": builds once, write-through spills to the store.
    EngineConfig spilling = base;
    spilling.graph_store_dir = store_dir;
    Engine first(spilling);
    (void)timed_batch(spec_jobs, first);
  }
  // "Restarted process": a fresh cache over the warm directory — the memory
  // tier is empty, so the first job mmap-loads from disk.
  GraphCache restarted(store_options);

  // The zero-copy claim, measured the same way as the other zero-* claims:
  // one mapped load's heap growth must be a small constant, not the graph's
  // edge bytes (which all stay in the mapping).
  const std::string instance_key = canonical_graph_key(graph_spec, derive_job_seed(3, 0));
  const std::size_t edge_bytes =
      serialized_graph_bytes(*probe_cache.get_or_build(graph_spec, derive_job_seed(3, 0)),
                             instance_key);
  const bench::AllocStats s0 = bench::alloc_stats();
  const auto mapped = restarted.get_or_build(graph_spec, derive_job_seed(3, 0));
  const bench::AllocStats s1 = bench::alloc_stats();
  const auto load_allocs = s1.allocations - s0.allocations;
  const auto load_heap_growth = s1.live_bytes - s0.live_bytes;
  const bool zero_copy_load =
      !mapped->owns_storage() && load_heap_growth < 4096 &&
      load_heap_growth * 16 < edge_bytes;
  std::cout << "store load: " << load_allocs << " allocations, " << load_heap_growth
            << " heap bytes retained for a " << edge_bytes
            << "-byte graph file (zero-copy mmap view: "
            << (zero_copy_load ? "yes" : "NO") << ")\n";

  EngineConfig warm_store = base;
  warm_store.graph_cache = &restarted;
  Engine warm_store_engine(warm_store);
  double warm_best = 0.0;
  (void)timed_batch(spec_jobs, warm_store_engine);  // warm arenas
  for (int r = 0; r < repeats; ++r)
    warm_best = std::max(warm_best, timed_batch(spec_jobs, warm_store_engine));
  const GraphCache::Stats store_stats = restarted.stats();
  std::cout << "cold-process/warm-store: " << warm_best
            << " jobs/s; store: " << store_stats.store_hits << " hits, "
            << store_stats.store_spills << " spills, " << store_stats.store_errors
            << " errors\n";
  std::filesystem::remove_all(store_dir);

  // ---- 5. Quality on, warm: the resident graph carries its sprank.
  std::vector<JobSpec> quality_jobs = spec_jobs;
  for (JobSpec& job : quality_jobs) job.pipeline.compute_quality = true;
  double quality_best = 0.0;
  std::uint64_t quality_first_solves = 0;
  std::uint64_t quality_warm_solves = 0;
  std::uint64_t quality_warm_hits = 0;
  {
    Engine quality_engine(base);
    (void)timed_batch(quality_jobs, quality_engine);  // first batch: solves
    const obs::Snapshot first = quality_engine.metrics();
    quality_first_solves = first.counter_total("worker", "sprank_solves");
    for (int r = 0; r < repeats; ++r)
      quality_best = std::max(quality_best, timed_batch(quality_jobs, quality_engine));
    const obs::Snapshot warm = quality_engine.metrics();
    quality_warm_solves =
        warm.counter_total("worker", "sprank_solves") - quality_first_solves;
    quality_warm_hits = warm.counter_total("worker", "sprank_memo_hits") -
                        first.counter_total("worker", "sprank_memo_hits");
  }
  const double warm_quality_jobs = static_cast<double>(jobs) * repeats;
  const double solves_per_1000 =
      1000.0 * static_cast<double>(quality_warm_solves) / warm_quality_jobs;
  std::cout << "quality on, warm: " << quality_best << " jobs/s, " << solves_per_1000
            << " sprank solves per 1000 warm jobs (" << quality_warm_hits
            << " memo hits; first batch solved " << quality_first_solves << ")\n";

  const double speedup = on_best / off_best;
  // PR 2's engine_batch measured 1364 jobs/s on the 1-core CI container with
  // this config (BENCH_workspace.json); the acceptance bar for this PR.
  const double pr2_baseline = 1364.0;
  std::cout << "\ncache-on " << on_best << " jobs/s vs cache-off " << off_best
            << " jobs/s (" << speedup << "x); PR 2 baseline " << pr2_baseline
            << " jobs/s\n";

  // Section 5's best-of-3 warm jobs/s before graphs carried their sprank
  // (one solve per job): median of 10 runs on a 4-vCPU box, default knobs.
  // The same 10 runs after: median 8317 jobs/s.
  constexpr double kQualityWarmBeforeJobsPerSecond = 4922.0;

  // Section 3's best-of-3 warm jobs/s when every job ran Sinkhorn–Knopp:
  // median of 10 runs on a 4-vCPU box, default knobs, before resident
  // graphs carried their scaling (range 10144–11669). The same 10 runs
  // after, alternated with those: median 18640 (range 17635–20381).
  constexpr double kScalingWarmBeforeJobsPerSecond = 10779.0;

  std::ofstream json("BENCH_graph_cache.json");
  json << "{\n"
       << "  \"bench\": \"graph_cache\",\n"
       << "  \"config\": {\"spec\": \"" << spec
       << "\", \"algorithm\": \"two_sided\", \"scaling_iterations\": 5, "
          "\"compute_quality\": false, \"jobs\": "
       << jobs << ", \"workers\": " << workers << ", \"threads_per_job\": 1},\n"
       << "  \"machine_cores\": " << num_procs() << ",\n"
       << "  \"graph_hot_path\": {\"graph_allocations_per_" << jobs
       << "_warm_jobs\": " << graph_allocs
       << ", \"net_heap_growth_bytes\": " << graph_live_growth << "},\n"
       << "  \"engine_batch\": {\"cache_on_jobs_per_second\": "
       << json_number(on_best)
       << ", \"cache_off_jobs_per_second\": " << json_number(off_best)
       << ", \"speedup\": " << json_number(speedup)
       << ", \"allocations_per_job_warm_cache_on\": "
       << json_number(batch_allocs_per_job)
       << ", \"note\": \"cache-off rebuilds each job's graph from its spec (the "
          "pre-cache engine behaviour); remaining cache-on allocations are the "
          "retained JobResult record plus the copy of each JobSpec into its "
          "submit slot (a batch rides the submit queue; the claiming worker "
          "moves the slot's buffers out, so the copy cannot reuse them)\"},\n"
       << "  \"cache\": {\"hits\": " << stats.hits << ", \"misses\": " << stats.misses
       << ", \"evictions\": " << stats.evictions << ", \"entries\": " << stats.entries
       << ", \"bytes\": " << stats.bytes << "},\n"
       << "  \"warm_engine_second_batch\": {\"jobs_per_second\": "
       << json_number(warm_engine_best)
       << ", \"cold_graph_builds\": " << warm_engine_cold_builds
       << ", \"first_batch_cold_builds\": " << first_batch_cold_builds
       << ", \"note\": \"one long-lived bmh::Engine re-running the batch it "
          "just served: pool, arenas and cache stay warm, so the second batch "
          "performs zero cold graph builds\"},\n"
       << "  \"warm_engine_zero_cold_builds_claim_holds\": "
       << (warm_engine_cold_builds == 0 ? "true" : "false") << ",\n"
       << "  \"cold_process_warm_store\": {\"jobs_per_second\": "
       << json_number(warm_best) << ", \"store_hits\": " << store_stats.store_hits
       << ", \"store_spills\": " << store_stats.store_spills
       << ", \"store_errors\": " << store_stats.store_errors
       << ", \"mapped_load_allocations\": " << load_allocs
       << ", \"mapped_load_heap_growth_bytes\": " << load_heap_growth
       << ", \"graph_file_bytes\": " << edge_bytes
       << ", \"note\": \"a fresh cache over a warm GraphStore directory (the "
          "process-restart scenario): the first job mmap-loads the serialized "
          "CSR+CSC instead of rebuilding, and the load's retained heap is a "
          "small constant — the edge arrays stay in the mapping\"},\n"
       << "  \"quality_on_warm\": {\"compute_quality\": true, "
          "\"jobs_per_second_before\": "
       << json_number(kQualityWarmBeforeJobsPerSecond)
       << ", \"jobs_per_second_after\": " << json_number(quality_best)
       << ", \"sprank_solves_per_1000_warm_jobs\": " << json_number(solves_per_1000)
       << ", \"sprank_memo_hits_warm\": " << quality_warm_hits
       << ", \"first_batch_sprank_solves\": " << quality_first_solves
       << ", \"note\": \"the batch above with quality on, on a fresh engine: "
          "the first batch solves sprank once per worker and leaves it on the "
          "resident graph, later batches read it back. 'before' is this "
          "section's best-of-3 warm jobs/s when every job solved sprank, the "
          "median of 10 runs on a 4-vCPU box with the default knobs (the "
          "same 10 runs after: median 8317); 'after' is this run's best-of-3\"},\n"
       << "  \"scaling_memo_warm\": {\"jobs_per_second_before\": "
       << json_number(kScalingWarmBeforeJobsPerSecond)
       << ", \"jobs_per_second_after\": " << json_number(warm_engine_best)
       << ", \"sk_solves_per_1000_warm_jobs\": " << json_number(sk_solves_per_1000)
       << ", \"scaling_memo_hits_warm\": " << warm_scaling_hits
       << ", \"first_batch_sk_solves\": " << first_batch_scalings
       << ", \"machine_cores\": " << num_procs()
       << ", \"note\": \"section 3's warm batches (two_sided, 5 SK iterations, one "
          "pinned resident graph): the graph publishes its multipliers on its "
          "second scaled job, and later jobs sample from them in place. 'before' "
          "is the same best-of-3 warm jobs/s when every job ran Sinkhorn-Knopp, "
          "the median of 10 runs on a 4-vCPU box with the default knobs; 'after' "
          "is this run's best-of-3\"},\n"
       << "  \"zero_graph_alloc_claim_holds\": " << (graph_allocs == 0 ? "true" : "false")
       << ",\n"
       << "  \"mapped_load_zero_copy_claim_holds\": " << (zero_copy_load ? "true" : "false")
       << ",\n"
       << "  \"latency\": " << latency << ",\n"
       << "  \"pr2_engine_batch_baseline_jobs_per_second\": " << json_number(pr2_baseline)
       << ",\n"
       << "  \"beats_pr2_baseline\": " << (on_best > pr2_baseline ? "true" : "false")
       << ",\n"
       << "  \"hardware_note\": \"the PR 2 baseline was measured on the 1-core CI "
          "container; compare like with like (same machine, same knobs). The "
          "zero-graph-allocations property is hardware-independent; the cache's "
          "contention advantage (sharded locks vs per-job builder malloc) only "
          "manifests with multiple worker cores. Latency percentiles are "
          "log-bucket estimates from this machine — on the 1-core container the "
          "workers time-share the core, so p99 includes scheduler preemption; "
          "absolute values are not comparable across machines\"\n"
       << "}\n";
  std::cout << "wrote BENCH_graph_cache.json\n";
  return 0;
}
