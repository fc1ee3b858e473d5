/// \file bmh_trace.cpp
/// \brief Traced layer replay for the perfbench workloads.
///
/// Reads the job lines a perfbench run sent to `bmh_engine --serve` and
/// replays them in four passes, recording a span around every call it makes
/// into the library. Nothing here changes how the library runs; the spans
/// live in this file only.
///
///   replay    one caller thread, the server's pipeline order per job:
///             parse_job_spec_line -> graph acquire (GraphCache::get_or_build
///             without a store | GraphStore::try_load / build_graph /
///             GraphStore::spill with one) -> scale ->
///             make_algorithm(...)->run_ws -> is_valid_matching / sprank_ws
///             -> to_json_line. Writes the --no-timings records, so the
///             caller can compare their digest with the server's.
///   untraced  the same replay with every span reduced to the bare call,
///             from the same starting state; its timed-phase wall time
///             against the traced pass's is the tracing overhead.
///   sweep     one pinned instance (--sweep-spec), each layer called three
///             times at 1, threads-per-job and 4 OpenMP threads: the 1->4
///             thread speedups, plus a measurement for any layer the
///             workload's own jobs never reach.
///   engine    an in-process bmh::Engine serving the same jobs as a closed
///             loop; spans around submit and from submit to callback, queue
///             wait and stage histograms read back from Engine::metrics().
///
/// Usage (perfbench/run.py builds the arguments):
///   bmh_trace --jobs FILE --sweep-spec LINE --tpj N --workers N --window N
///             --cache-mb N [--replay-store DIR] [--engine-store DIR]
///             --sweep-dir DIR --records-out FILE --trace-out FILE
/// FILE lines are `PHASE<TAB>INDEX<TAB>SPEC` with PHASE warm|discard|timed.
/// Prints one JSON object on stdout; the stage cross-check goes to stderr.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bmh.hpp"

namespace {

namespace fs = std::filesystem;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct JobLine {
  std::string phase;
  std::size_t index = 0;
  std::string spec;
};

std::vector<JobLine> read_jobs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::vector<JobLine> jobs;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t a = line.find('\t');
    const std::size_t b = a == std::string::npos ? a : line.find('\t', a + 1);
    if (b == std::string::npos) throw std::runtime_error("bad job line: " + line);
    jobs.push_back({line.substr(0, a), std::stoul(line.substr(a + 1, b - a - 1)),
                    line.substr(b + 1)});
  }
  return jobs;
}

/// Complete spans in Chrome trace-event form ("ph":"X"), kept in memory and
/// written once at the end. A trace built with `record = false` keeps no
/// spans, and timed() around it runs the bare call.
class Trace {
public:
  explicit Trace(bool record = true) : origin_ns_(now_ns()), record_(record) {}

  [[nodiscard]] bool recording() const { return record_; }
  void reserve(std::size_t spans) { spans_.reserve(spans); }

  /// Records [start, end) and returns its length in seconds.
  double add(const char* name, int tid, long job, std::int64_t start, std::int64_t end) {
    if (record_) spans_.push_back({name, tid, job, start, end});
    return static_cast<double>(end - start) * 1e-9;
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write '" + path + "'");
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%ld}}",
                    i == 0 ? "" : ",", s.name, s.tid,
                    static_cast<double>(s.start - origin_ns_) * 1e-3,
                    static_cast<double>(s.end - s.start) * 1e-3, s.job);
      out << buf;
    }
    out << "\n]}\n";
  }

private:
  struct Span {
    const char* name;
    int tid;
    long job;
    std::int64_t start;
    std::int64_t end;
  };
  std::int64_t origin_ns_;
  bool record_;
  std::vector<Span> spans_;
};

constexpr int kReplayTid = 1;
constexpr int kSweepTid = 2;
constexpr int kSubmitTid = 3;
constexpr int kLatencyTidBase = 10;  ///< one lane per in-flight window slot

/// Per-layer samples: call durations plus the work each call did (edges,
/// bytes), so rates are total work over total time.
struct Samples {
  std::vector<double> seconds;
  double work = 0.0;

  void add(double s, double w = 0.0) {
    seconds.push_back(s);
    work += w;
  }
  [[nodiscard]] double total() const {
    double t = 0.0;
    for (double s : seconds) t += s;
    return t;
  }
  [[nodiscard]] double mean() const {
    return seconds.empty() ? 0.0 : total() / static_cast<double>(seconds.size());
  }
  [[nodiscard]] double median() const {
    if (seconds.empty()) return 0.0;
    std::vector<double> v = seconds;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
};

using Layers = std::map<std::string, Samples>;

/// Times `fn` as one span on `tid` and returns its length in seconds (0 when
/// `trace` does not record).
template <typename Fn>
double timed(Trace& trace, const char* name, int tid, long job, Fn&& fn) {
  if (!trace.recording()) {
    fn();
    return 0.0;
  }
  const std::int64_t start = now_ns();
  fn();
  return trace.add(name, tid, job, start, now_ns());
}

const char* match_layer(const std::string& algorithm) {
  if (algorithm == "two_sided") return "core.two_sided";
  if (algorithm == "one_sided") return "core.one_sided";
  if (algorithm == "k_out") return "core.k_out";
  if (algorithm == "karp_sipser") return "matching.karp_sipser";
  return "matching.other";
}

std::size_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

struct Options {
  int tpj = 1;
  int workers = 1;
  std::size_t window = 1;
  std::size_t cache_mb = 256;
  std::string replay_store;  ///< empty: the replay acquires through a GraphCache
  std::string engine_store;
  std::string sweep_dir;
};

/// The server's --seed as perfbench runs it: the base of derived job seeds
/// (perfbench pins seed= on every line, so none are derived in practice).
constexpr std::uint64_t kServerSeed = 1;

/// One algorithm instance per name, as the pipeline's workspace cache keeps
/// them: the built-ins are rebindable, so options travel with each run.
class AlgorithmCache {
public:
  const bmh::MatchingAlgorithm& get(const bmh::PipelineConfig& config) {
    auto& slot = by_name_[config.algorithm];
    if (slot == nullptr) slot = bmh::make_algorithm(config.algorithm, config.options);
    return *slot;
  }

private:
  std::map<std::string, std::unique_ptr<bmh::MatchingAlgorithm>> by_name_;
};

struct ReplayTotals {
  double timed_job_seconds = 0.0;
  double timed_child_seconds = 0.0;
  double timed_sprank_seconds = 0.0;
  std::size_t timed_jobs = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_lookups = 0;
  std::size_t store_hits = 0;
  std::size_t store_lookups = 0;
  std::size_t failed = 0;
  std::vector<double> unaccounted;  ///< per timed job: share of its wall time outside spans
  std::vector<double> stage_scale, stage_match, stage_analyze;  ///< timed jobs
};

/// The replay pass: every job through the layers in the server's order.
ReplayTotals replay(const std::vector<JobLine>& jobs, const Options& opt, Trace& trace,
                    Layers& layers, std::ostream& records) {
  ReplayTotals totals;
  bmh::Workspace ws;
  AlgorithmCache algorithms;
  std::optional<bmh::GraphCache> cache;
  std::optional<bmh::GraphStore> store;
  if (opt.replay_store.empty()) {
    bmh::GraphCache::Options co;
    co.max_bytes = opt.cache_mb << 20;
    cache.emplace(co);
  } else {
    store.emplace(opt.replay_store);
  }
  std::set<std::string> seen_keys;
  // A job's layer samples, filed into `layers` after its span closes, so the
  // bookkeeping does not sit between its child spans.
  struct Pending {
    const char* layer;
    double seconds;
    double work;
  };
  std::vector<Pending> pending;

  for (const JobLine& line : jobs) {
    const long id = static_cast<long>(line.index);
    double children = 0.0;
    double scale_s = 0.0, match_s = 0.0, analyze_s = 0.0, sprank_s = 0.0, spill_s = -1.0;
    pending.clear();
    const auto child = [&](double seconds, const char* layer = nullptr, double work = 0.0) {
      children += seconds;
      if (layer != nullptr) pending.push_back({layer, seconds, work});
    };
    const std::int64_t job_start = now_ns();

    bmh::JobSpec job;
    child(timed(trace, "parse_job_spec_line", kReplayTid, id,
                [&] { job = bmh::parse_job_spec_line(line.spec); }),
          "engine.parse");
    if (job.name.empty()) job.name = "job" + std::to_string(line.index);

    bmh::JobResult out;
    out.index = line.index;
    out.name = job.name;
    out.input = job.input.spec;
    out.kind = job.kind;
    out.algorithm = job.pipeline.algorithm;
    out.seed = job.seed.value_or(bmh::derive_job_seed(kServerSeed, line.index));

    // Graph acquire, tier by tier, the way the server's cache walks them.
    std::shared_ptr<const bmh::BipartiteGraph> graph;
    std::string key;
    child(timed(trace, "canonical_graph_key", kReplayTid, id,
                [&] { key = bmh::canonical_graph_key(job.input, out.seed); }));
    if (cache) {
      if (seen_keys.insert(key).second) {
        // First touch: time the build itself; the cache call below then
        // builds its own resident copy (a miss, spanned separately).
        bmh::BipartiteGraph built;
        const double s = timed(trace, "build_graph", kReplayTid, id,
                               [&] { built = bmh::build_graph(job.input, out.seed); });
        child(s, "graph.build", static_cast<double>(built.num_edges()));
      }
      const std::uint64_t hits_before = cache->stats().hits;
      const double s = timed(trace, "GraphCache::get_or_build", kReplayTid, id,
                             [&] { graph = cache->get_or_build(job.input, out.seed); });
      ++totals.cache_lookups;
      const bool hit = cache->stats().hits > hits_before;
      totals.cache_hits += hit ? 1 : 0;
      child(s, hit ? "graph_cache.hit" : nullptr);
    } else {
      ++totals.store_lookups;
      const double s = timed(trace, "GraphStore::try_load", kReplayTid, id,
                             [&] { graph = store->try_load(key); });
      if (graph != nullptr) {
        ++totals.store_hits;
        child(s, "graph_store.load", static_cast<double>(graph->memory_bytes()));
      } else {
        child(s);
        std::shared_ptr<bmh::BipartiteGraph> built;
        const double build_s = timed(trace, "build_graph", kReplayTid, id, [&] {
          built = std::make_shared<bmh::BipartiteGraph>(bmh::build_graph(job.input, out.seed));
        });
        child(build_s, "graph.build", static_cast<double>(built->num_edges()));
        graph = built;
        spill_s = timed(trace, "GraphStore::spill", kReplayTid, id,
                        [&] { (void)store->spill(key, *graph); });
        child(spill_s);  // filed below, once the file's size is read
      }
    }
    const bmh::BipartiteGraph& g = *graph;
    out.rows = g.num_rows();
    out.cols = g.num_cols();
    out.edges = g.num_edges();

    // The pipeline's stages, called one by one (run_stages_ws order).
    bmh::PipelineConfig config = job.pipeline;
    config.options.seed = out.seed;
    if (config.options.threads <= 0) config.options.threads = opt.tpj;
    const bmh::ThreadCountGuard guard(config.options.threads);
    const bmh::MatchingAlgorithm& algorithm = algorithms.get(config);
    bmh::PipelineResult& r = out.result;
    r.reset();
    bmh::ScalingResult& scaling = ws.obj<bmh::ScalingResult>("perfbench.scaling");
    const bool scale = algorithm.uses_scaling() &&
                       config.scaling != bmh::ScalingMethod::kNone &&
                       config.scaling_iterations > 0;
    const bmh::ScalingOptions scaling_opts{config.scaling_iterations,
                                           config.scaling_tolerance};
    if (scale && config.scaling == bmh::ScalingMethod::kSinkhornKnopp) {
      scale_s = timed(trace, "scale_sinkhorn_knopp_ws", kReplayTid, id,
                      [&] { bmh::scale_sinkhorn_knopp_ws(g, scaling_opts, ws, scaling); });
      pending.push_back({"scaling.sinkhorn_knopp", scale_s,
                         static_cast<double>(g.num_edges()) * scaling.iterations});
    } else if (scale) {
      scale_s = timed(trace, "scale_ruiz_ws", kReplayTid, id,
                      [&] { bmh::scale_ruiz_ws(g, scaling_opts, ws, scaling); });
    } else {
      scale_s = timed(trace, "identity_scaling_ws", kReplayTid, id,
                      [&] { bmh::identity_scaling_ws(g, ws, scaling, false); });
    }
    if (scale) {
      r.scaling_iterations = scaling.iterations;
      r.scaling_error = scaling.error;
    }
    match_s = timed(trace, "MatchingAlgorithm::run_ws", kReplayTid, id, [&] {
      algorithm.run_ws(g, scaling, config.options, ws, r.matching);
    });
    pending.push_back({match_layer(config.algorithm), match_s, 0.0});
    // The pipeline counts the matching outside its stages; so does the replay.
    child(timed(trace, "Matching::cardinality", kReplayTid, id,
                [&] { r.heuristic_cardinality = r.matching.cardinality(); }));
    r.exact = algorithm.is_exact();
    r.cardinality = r.heuristic_cardinality;
    const double validate_s = timed(trace, "is_valid_matching", kReplayTid, id,
                                    [&] { r.valid = bmh::is_valid_matching(g, r.matching); });
    pending.push_back({"matching.validate", validate_s, 0.0});
    analyze_s += validate_s;
    if (config.compute_quality) {
      if (r.exact) {
        r.sprank = r.cardinality;
      } else {
        sprank_s = timed(trace, "sprank_ws", kReplayTid, id,
                         [&] { r.sprank = bmh::sprank_ws(g, ws); });
        pending.push_back({"matching.sprank", sprank_s, 0.0});
        analyze_s += sprank_s;
      }
      r.quality = bmh::matching_quality(r.matching, r.sprank);
    }
    out.ok = true;
    if (!r.valid) ++totals.failed;
    children += scale_s + match_s + analyze_s;

    std::string record;
    child(timed(trace, "to_json_line", kReplayTid, id,
                [&] { record = bmh::to_json_line(out, /*include_timings=*/false); }),
          "engine.encode");
    const double job_s = trace.add("job", kReplayTid, id, job_start, now_ns());
    records << record << '\n';
    for (const Pending& sample : pending) layers[sample.layer].add(sample.seconds, sample.work);
    if (spill_s >= 0.0)
      layers["graph_store.spill"].add(spill_s,
                                      static_cast<double>(file_bytes(store->path_for(key))));

    if (line.phase == "timed") {
      ++totals.timed_jobs;
      totals.timed_job_seconds += job_s;
      totals.timed_child_seconds += children;
      totals.unaccounted.push_back((job_s - children) / job_s);
      totals.timed_sprank_seconds += sprank_s;
      totals.stage_scale.push_back(scale_s);
      totals.stage_match.push_back(match_s);
      totals.stage_analyze.push_back(analyze_s);
    }
  }
  return totals;
}

/// Median of three timed calls of `fn` at `threads` OpenMP threads.
template <typename Fn>
double median_of_3(Trace& trace, const char* name, int threads, Fn&& fn) {
  const bmh::ThreadCountGuard guard(threads);
  Samples s;
  for (int rep = 0; rep < 3; ++rep) s.add(timed(trace, name, kSweepTid, -1, fn));
  return s.median();
}

struct SweepResult {
  Layers layers;  ///< per-call samples at threads-per-job
  std::map<std::string, double> speedup_4t;
};

/// The layer sweep on the pinned instance (see the file comment).
SweepResult sweep(const std::string& spec_line, const Options& opt, Trace& trace) {
  SweepResult out;
  const bmh::JobSpec job = bmh::parse_job_spec_line(spec_line);
  const std::uint64_t seed = job.seed.value_or(1);
  bmh::Workspace ws;

  bmh::BipartiteGraph g;
  for (int rep = 0; rep < 3; ++rep) {
    const double s = timed(trace, "build_graph", kSweepTid, -1,
                           [&] { g = bmh::build_graph(job.input, seed); });
    out.layers["graph.build"].add(s, static_cast<double>(g.num_edges()));
  }
  const std::string key = bmh::canonical_graph_key(job.input, seed);
  for (int rep = 0; rep < 3; ++rep) {
    const std::string dir = opt.sweep_dir + "/rep" + std::to_string(rep);
    fs::remove_all(dir);
    bmh::GraphStore store(dir);
    double s = timed(trace, "GraphStore::spill", kSweepTid, -1,
                     [&] { (void)store.spill(key, g); });
    const double bytes = static_cast<double>(file_bytes(store.path_for(key)));
    out.layers["graph_store.spill"].add(s, bytes);
    std::shared_ptr<const bmh::BipartiteGraph> loaded;
    s = timed(trace, "GraphStore::try_load", kSweepTid, -1,
              [&] { loaded = store.try_load(key); });
    if (loaded == nullptr) throw std::runtime_error("sweep: spilled graph did not load");
    out.layers["graph_store.load"].add(s, bytes);
  }
  fs::remove_all(opt.sweep_dir);
  {
    bmh::GraphCache cache;
    (void)cache.get_or_build(job.input, seed);
    for (int rep = 0; rep < 3; ++rep) {
      const double s = timed(trace, "GraphCache::get_or_build", kSweepTid, -1,
                             [&] { (void)cache.get_or_build(job.input, seed); });
      out.layers["graph_cache.hit"].add(s);
    }
  }

  bmh::ScalingResult scaling;
  bmh::Matching m;
  bmh::AlgorithmOptions ao = job.pipeline.options;
  ao.seed = seed;
  const bmh::ScalingOptions so{job.pipeline.scaling_iterations, 0.0};
  std::map<std::string, std::map<int, double>> at;  // layer -> threads -> s
  std::vector<int> thread_counts{1, 4};
  if (opt.tpj != 1 && opt.tpj != 4) thread_counts.push_back(opt.tpj);
  for (int t : thread_counts) {
    ao.threads = t;
    at["scaling.sinkhorn_knopp"][t] = median_of_3(trace, "scale_sinkhorn_knopp_ws", t, [&] {
      bmh::scale_sinkhorn_knopp_ws(g, so, ws, scaling);
    });
    for (const char* name : {"two_sided", "one_sided", "k_out", "karp_sipser"}) {
      const auto algorithm = bmh::make_algorithm(name, ao);
      at[match_layer(name)][t] = median_of_3(trace, "MatchingAlgorithm::run_ws", t, [&] {
        algorithm->run_ws(g, scaling, ao, ws, m);
      });
    }
    if (t == opt.tpj) {
      const double validate = median_of_3(trace, "is_valid_matching", t,
                                          [&] { (void)bmh::is_valid_matching(g, m); });
      out.layers["matching.validate"].add(validate);
      const double sprank = median_of_3(trace, "sprank_ws", t,
                                        [&] { (void)bmh::sprank_ws(g, ws); });
      out.layers["matching.sprank"].add(sprank);
    }
  }
  for (const auto& [layer, by_threads] : at) {
    const double work = layer == "scaling.sinkhorn_knopp"
                            ? static_cast<double>(g.num_edges()) * so.max_iterations
                            : 0.0;
    out.layers[layer].add(by_threads.at(opt.tpj), work);
    out.speedup_4t[layer] = by_threads.at(1) / std::max(by_threads.at(4), 1e-12);
  }
  return out;
}

struct EngineTotals {
  double submit_us = 0.0;
  double latency_us = 0.0;
  double queue_wait_p50_ms = 0.0;
  double queue_wait_us = 0.0;
  double job_us = 0.0;
  double jobs_per_s = 0.0;
  std::size_t failed = 0;
  double stage_p50_ms[3] = {0, 0, 0};  ///< scale, match, analyze
};

bmh::obs::HistogramData minus(bmh::obs::HistogramData a, const bmh::obs::HistogramData& b) {
  for (std::size_t i = 0; i < a.buckets.size(); ++i) a.buckets[i] -= b.buckets[i];
  a.count -= b.count;
  a.sum_ns -= b.sum_ns;
  return a;
}

/// The engine pass: an in-process Engine fed as a closed loop.
EngineTotals engine_pass(const std::vector<JobLine>& jobs, const Options& opt,
                         Trace& trace) {
  bmh::EngineConfig config;
  config.threads = opt.workers;
  config.threads_per_job = opt.tpj;
  config.seed = kServerSeed;
  config.graph_cache_mb = opt.cache_mb;
  config.graph_store_dir = opt.engine_store;
  bmh::Engine engine(config);

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t in_flight = 0;
  std::size_t failed = 0;
  std::vector<std::int64_t> submit_start(jobs.size()), submit_end(jobs.size()),
      done_at(jobs.size());
  const auto wait_below = [&](std::size_t limit) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return in_flight < limit; });
  };

  bmh::obs::Snapshot before;
  std::size_t first_timed = jobs.size();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].phase == "timed" && first_timed == jobs.size()) {
      wait_below(1);  // warm-up and discard jobs are done before timing
      before = engine.metrics();
      first_timed = i;
    }
    bmh::JobSpec job = bmh::parse_job_spec_line(jobs[i].spec);
    if (job.name.empty()) job.name = "job" + std::to_string(jobs[i].index);
    wait_below(opt.window);
    {
      const std::lock_guard<std::mutex> lock(mutex);
      ++in_flight;
    }
    submit_start[i] = now_ns();
    engine.submit(
        std::move(job),
        [&, i](bmh::JobResult&& r) {
          const std::int64_t t = now_ns();
          const std::lock_guard<std::mutex> lock(mutex);
          done_at[i] = t;
          if (!r.ok || !r.result.valid) ++failed;
          --in_flight;
          cv.notify_all();
        },
        jobs[i].index);
    submit_end[i] = now_ns();
  }
  wait_below(1);
  const bmh::obs::Snapshot after = engine.metrics();

  EngineTotals totals;
  totals.failed = failed;
  const std::size_t timed_jobs = jobs.size() - first_timed;
  if (timed_jobs == 0) return totals;
  std::int64_t last_done = 0;
  for (std::size_t i = first_timed; i < jobs.size(); ++i) {
    const long id = static_cast<long>(jobs[i].index);
    totals.submit_us +=
        trace.add("Engine::submit", kSubmitTid, id, submit_start[i], submit_end[i]) * 1e6;
    totals.latency_us +=
        trace.add("submit->callback",
                  kLatencyTidBase + static_cast<int>((i - first_timed) % opt.window), id,
                  submit_start[i], done_at[i]) *
        1e6;
    last_done = std::max(last_done, done_at[i]);
  }
  const double n = static_cast<double>(timed_jobs);
  totals.submit_us /= n;
  totals.latency_us /= n;
  totals.jobs_per_s =
      n / (static_cast<double>(last_done - submit_start[first_timed]) * 1e-9);
  const auto delta = [&](const char* metric) {
    return minus(after.histogram_merged("worker", metric),
                 before.histogram_merged("worker", metric));
  };
  const bmh::obs::HistogramData queue_wait = delta("queue_wait");
  totals.queue_wait_p50_ms = queue_wait.p50_ns() * 1e-6;
  totals.queue_wait_us = queue_wait.mean_ns() * 1e-3;
  totals.job_us = delta("job").mean_ns() * 1e-3;
  totals.stage_p50_ms[0] = delta("stage_scale").p50_ns() * 1e-6;
  totals.stage_p50_ms[1] = delta("stage_match").p50_ns() * 1e-6;
  totals.stage_p50_ms[2] = delta("stage_analyze").p50_ns() * 1e-6;
  return totals;
}

double median(std::vector<double> v) {
  Samples s;
  s.seconds = std::move(v);
  return s.median();
}

/// The p-th percentile, linear between the closest ranks (as perfbench/stats.py).
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double pos = static_cast<double>(v.size() - 1) * p / 100.0;
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

} // namespace

int main(int argc, char** argv) {
  try {
    const bmh::CliArgs args(argc, argv);
    Options opt;
    opt.tpj = static_cast<int>(args.get_int("tpj", 1));
    opt.workers = static_cast<int>(args.get_int("workers", 1));
    opt.window = static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("window", 1)));
    opt.cache_mb = static_cast<std::size_t>(args.get_int("cache-mb", 256));
    opt.replay_store = args.get("replay-store", "");
    opt.engine_store = args.get("engine-store", "");
    opt.sweep_dir = args.get("sweep-dir", "");
    const std::vector<JobLine> jobs = read_jobs(args.get("jobs", ""));
    const std::string sweep_spec = args.get("sweep-spec", "");
    if (opt.sweep_dir.empty()) throw std::runtime_error("--sweep-dir is required");
    if (sweep_spec.empty()) throw std::runtime_error("--sweep-spec is required");

    Trace trace;
    trace.reserve(jobs.size() * 16 + 1024);
    Layers layers;
    std::ofstream records(args.get("records-out", ""));
    if (!records) throw std::runtime_error("cannot write --records-out");
    // A store that does not exist yet is a fresh one: the untraced pass
    // starts from an absent store too.
    const bool fresh_store = !opt.replay_store.empty() && !fs::exists(opt.replay_store);
    const std::int64_t replay_start = now_ns();
    const ReplayTotals rt = replay(jobs, opt, trace, layers, records);
    const double replay_seconds = static_cast<double>(now_ns() - replay_start) * 1e-9;
    if (rt.timed_jobs == 0) throw std::runtime_error("no timed jobs to replay");
    if (fresh_store) fs::remove_all(opt.replay_store);
    Trace untraced_trace(/*record=*/false);
    Layers untraced_layers;
    std::ostringstream untraced_records;
    const ReplayTotals ut = replay(jobs, opt, untraced_trace, untraced_layers, untraced_records);
    const SweepResult sw = sweep(sweep_spec, opt, trace);
    const EngineTotals et = engine_pass(jobs, opt, trace);
    trace.write_chrome(args.get("trace-out", ""));

    // Layer values: from the workload's own job spans where its jobs reach
    // the layer, from the sweep otherwise.
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> sources;
    const auto pick = [&](const std::string& layer) -> const Samples& {
      const auto it = layers.find(layer);
      const bool own = it != layers.end() && !it->second.seconds.empty();
      sources[layer] = own ? "jobs" : "sweep";
      return own ? it->second : sw.layers.at(layer);
    };
    const auto per_call = [&](const std::string& layer, const std::string& name,
                              double scale) { metrics[name] = pick(layer).mean() * scale; };
    const auto rate = [&](const std::string& layer, const std::string& name,
                          double unit) {
      const Samples& s = pick(layer);
      metrics[name] = s.work / unit / std::max(s.total(), 1e-12);
    };
    per_call("engine.parse", "engine.parse.us_per_job", 1e6);
    per_call("engine.encode", "engine.encode.us_per_job", 1e6);
    per_call("graph_cache.hit", "graph_cache.hit.us_per_call", 1e6);
    per_call("graph.build", "graph.build.ms_per_graph", 1e3);
    rate("graph.build", "graph.build.medges_per_s", 1e6);
    per_call("graph_store.spill", "graph_store.spill.ms_per_graph", 1e3);
    rate("graph_store.spill", "graph_store.spill.mb_per_s", 1 << 20);
    per_call("graph_store.load", "graph_store.load.ms_per_graph", 1e3);
    rate("graph_store.load", "graph_store.load.mb_per_s", 1 << 20);
    per_call("scaling.sinkhorn_knopp", "scaling.sinkhorn_knopp.ms_per_call", 1e3);
    rate("scaling.sinkhorn_knopp", "scaling.sinkhorn_knopp.medges_per_s", 1e6);
    for (const char* layer : {"core.two_sided", "core.one_sided", "core.k_out",
                              "matching.karp_sipser", "matching.validate",
                              "matching.sprank"})
      per_call(layer, std::string(layer) + ".ms_per_call", 1e3);
    for (const auto& [layer, speedup] : sw.speedup_4t)
      if (layer != "matching.karp_sipser") metrics[layer + ".speedup_4t"] = speedup;
    metrics["matching.sprank.share_of_job"] = rt.timed_sprank_seconds / rt.timed_job_seconds;
    metrics["trace.unaccounted_share"] =
        (rt.timed_job_seconds - rt.timed_child_seconds) / rt.timed_job_seconds;
    metrics["trace.overhead_share"] = 1.0 - ut.timed_job_seconds / rt.timed_job_seconds;
    metrics["engine.submit.us_per_call"] = et.submit_us;
    metrics["engine.queue_wait.p50_ms"] = et.queue_wait_p50_ms;
    metrics["engine.overhead.us_per_job"] = et.latency_us - et.queue_wait_us - et.job_us;

    std::cerr << "cross-check stage p50 ms (engine histogram | replay span): scale "
              << et.stage_p50_ms[0] << " | " << median(rt.stage_scale) * 1e3 << ", match "
              << et.stage_p50_ms[1] << " | " << median(rt.stage_match) * 1e3
              << ", analyze " << et.stage_p50_ms[2] << " | "
              << median(rt.stage_analyze) * 1e3 << '\n';

    std::ostringstream json;
    json.precision(17);
    json << "{\"metrics\":{";
    bool first = true;
    for (const auto& [name, value] : metrics) {
      json << (first ? "" : ",") << '"' << name << "\":" << value;
      first = false;
    }
    json << "},\"sources\":{";
    first = true;
    for (const auto& [layer, source] : sources) {
      json << (first ? "" : ",") << '"' << layer << "\":\"" << source << '"';
      first = false;
    }
    json << "},\"replay\":{\"timed_jobs\":" << rt.timed_jobs
         << ",\"jobs_per_s\":" << static_cast<double>(jobs.size()) / replay_seconds
         << ",\"failed\":" << rt.failed << ",\"cache_hits\":" << rt.cache_hits
         << ",\"cache_lookups\":" << rt.cache_lookups << ",\"store_hits\":" << rt.store_hits
         << ",\"store_lookups\":" << rt.store_lookups
         << ",\"timed_job_s\":" << rt.timed_job_seconds
         << ",\"untraced_timed_job_s\":" << ut.timed_job_seconds
         << ",\"unaccounted_p95\":" << percentile(rt.unaccounted, 95.0)
         << ",\"unaccounted_max\":"
         << *std::max_element(rt.unaccounted.begin(), rt.unaccounted.end())
         << "},\"sweep_spec\":\"" << sweep_spec << "\",\"engine\":{\"jobs_per_s\":" << et.jobs_per_s << ",\"failed\":" << et.failed
         << ",\"latency_us\":" << et.latency_us << ",\"queue_wait_us\":" << et.queue_wait_us
         << ",\"job_us\":" << et.job_us << "}}";
    std::cout << json.str() << '\n';
    return rt.failed == 0 && et.failed == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "bmh_trace: " << e.what() << '\n';
    return 1;
  }
}
