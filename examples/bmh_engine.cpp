/// \file bmh_engine.cpp
/// \brief The matching engine CLI: one long-lived bmh::Engine serving a
/// batch (--spec/--demo) or a stdin job stream (--serve), one JSON line per
/// job.
///
/// Usage:
///   bmh_engine --spec jobs.txt [--out results.jsonl] [--threads 4]
///              [--threads-per-job 2] [--seed 1] [--graph-cache-mb 256]
///              [--graph-store DIR] [--graph-store-budget-mb N]
///              [--store-fsync] [--queue-depth N] [--no-timings] [--quiet]
///              [--metrics-out FILE] [--metrics-interval-ms N]
///   bmh_engine --serve           # read job spec lines from stdin, emit
///                                # each result as soon as it completes
///   bmh_engine --demo            # built-in 10-job mixed batch
///   bmh_engine --list            # kinds, sources, algorithms, analyses
///
/// Spec format (one job per line, `#` comments; see src/engine/job.hpp):
///   name=j0 input=gen:er:n=8192,deg=5 algo=two_sided iters=5 augment=0
///   name=j1 input=mtx:path/to/matrix.mtx algo=one_sided iters=10
///   name=j2 input=suite:cage15_like:scale=0.1 algo=karp_sipser
///   name=j3 input=mm:path=matrix.mtx kind=undirected-match algo=one_out
///   name=j4 input=mm:path=matrix.mtx kind=analyze algo=dm
///
/// `kind=` selects the workload (default match, the legacy behavior):
/// undirected-match converts the bipartite input to an undirected graph and
/// runs an undirected algorithm (`--list` category `undirected`); analyze
/// runs a structural analysis (`--list` category `analysis`). `mm:path=`
/// sources are keyed by file *content*, so the cache and store recognize
/// the same matrix across paths, renames and process restarts.
///
/// Every mode shares one bmh::Engine: worker pool, per-worker scratch
/// arenas, the sharded graph cache and the optional persistent store are
/// constructed once and stay warm for the whole process. Jobs denoting the
/// same instance (same canonical spec + effective seed) share one immutable
/// graph; the summary reports the cache counters plus the engine's cold
/// graph builds. `--graph-store DIR` adds the persistent tier (spill on
/// build, mmap-load on later runs — byte-identical output). The store's
/// writer thread spills behind the jobs; the process waits for it before
/// the summary and `--metrics-out`, so every file is on disk by exit.
/// `--graph-store-budget-mb` prunes the directory LRU-by-mtime when spills
/// push it over budget, and `--store-fsync` makes each spill durable
/// against unclean shutdown. `--threads 0` auto-detects one worker per
/// processor (the summary prints the resolved count).
///
/// Batch modes stream each record in job index order as soon as every
/// lower index is written, then drop it, so memory stays bounded for very
/// large batches. A batch rides the same submission queue as `--serve`, so
/// `--queue-depth` bounds how many of its jobs wait unclaimed at once.
/// `--serve` is the server shape: job spec lines arrive on
/// stdin, each result is written (and flushed) the moment it completes —
/// completion order, so with more than one worker thread, lines can leave
/// out of order; the `job` field carries the input line's position. A
/// malformed line emits an ok=false record (error_kind=parse) instead of
/// killing the server. SIGTERM or SIGINT drains instead of aborting: no
/// further lines are read, every in-flight job still completes and flushes
/// its record, the serve_metrics summary gains `"drained":true`, and the
/// exit status is the usual one (0 when every emitted record was ok).
///
/// With a fixed --seed the emitted records are byte-identical across
/// reruns and thread counts (cache, store and serve-with-one-thread
/// included); pass --no-timings to drop the wall-clock fields (the
/// only nondeterministic ones) when diffing runs.
///
/// Observability (see README "Observability"): `--metrics-out FILE` writes
/// the engine's final metrics snapshot to FILE — Prometheus text exposition
/// when FILE ends in `.prom`, JSON lines otherwise — and
/// `--metrics-interval-ms N` additionally rewrites it every N ms while jobs
/// run (atomic tmp+rename, so a scraper never reads a half-written file).
/// Metrics go to their own file and the summary to stderr precisely so the
/// record stream on stdout stays byte-identical with and without them. In
/// --serve mode the summary includes one machine-readable
/// {"record":"serve_metrics",...} line on stderr whose `jobs` field equals
/// the records emitted.

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

#include "bmh.hpp"

namespace {

/// Set by SIGTERM/SIGINT while --serve runs: the read loop stops taking new
/// lines, in-flight jobs finish and flush, the summary still comes out —
/// a drain, not an abort. sig_atomic_t + a handler that only stores are the
/// whole async-signal-safe surface.
volatile std::sig_atomic_t g_drain_signal = 0;

extern "C" void handle_drain_signal(int sig) { g_drain_signal = sig; }

/// Installs the drain handler *without* SA_RESTART: a getline blocked on an
/// idle stdin must come back with EINTR (stream goes bad, loop exits) — the
/// default restarting disposition would keep the server stuck in read(2)
/// until the next request, which for a terminating service may never come.
void install_drain_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_drain_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

/// Counters the serve loop shares with worker callbacks.
struct ServeState {
  std::mutex mutex;                  ///< guards everything below + the sink
  std::condition_variable drained;
  std::size_t in_flight = 0;
  std::size_t jobs = 0;
  std::size_t failed = 0;
};

std::int64_t wall_clock_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Renders the engine's current snapshot into `path` — Prometheus text for
/// a `.prom` extension, JSON lines otherwise — via tmp+rename so a
/// concurrent scraper never sees a torn file. Failures warn once on stderr
/// and are otherwise ignored: metrics must never take the serving loop down.
void write_metrics_file(const bmh::Engine& engine, const std::string& path) {
  static bool warned = false;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::trunc);
    if (!file) {
      if (!warned) std::cerr << "warning: cannot write metrics to '" << path << "'\n";
      warned = true;
      return;
    }
    const bmh::obs::Snapshot snapshot = engine.metrics();
    if (ends_with(path, ".prom"))
      bmh::obs::export_prometheus(snapshot, file);
    else
      bmh::obs::export_json_lines(snapshot, file, wall_clock_ms());
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) (void)std::remove(tmp.c_str());
}

/// Background rewriter for --metrics-interval-ms: scrape-style periodic
/// snapshots of a long-running serve/batch process.
class MetricsWriter {
public:
  MetricsWriter(const bmh::Engine& engine, std::string path, long interval_ms)
      : engine_(engine), path_(std::move(path)) {
    if (path_.empty() || interval_ms <= 0) return;
    thread_ = std::thread([this, interval_ms] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                                [this] { return stop_; })) {
        lock.unlock();
        write_metrics_file(engine_, path_);
        lock.lock();
      }
    });
  }

  ~MetricsWriter() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    stop_cv_.notify_all();
    thread_.join();
  }

private:
  const bmh::Engine& engine_;
  std::string path_;
  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

} // namespace

int main(int argc, char** argv) {
  try {
    const bmh::CliArgs args(argc, argv);
    if (args.has("help") || argc == 1) {
      std::cout
          << "bmh_engine --spec FILE | --serve | --demo | --list\n"
             "  --out FILE            write JSON lines here (default stdout)\n"
             "  --threads N           engine worker threads (default 1;\n"
             "                        0 = one per processor)\n"
             "  --threads-per-job N   OpenMP threads inside each job (default 1;\n"
             "                        0 = ambient; capped at the processor count)\n"
             "  --seed S              base seed for per-job RNG derivation (default 1)\n"
             "  --graph-cache-mb N    byte budget of the shared graph cache\n"
             "                        (default 256; 0 rebuilds every job's graph)\n"
             "  --graph-store DIR     persistent graph tier: spill built graphs\n"
             "                        to DIR, mmap-load them on later runs\n"
             "  --graph-store-budget-mb N\n"
             "                        prune DIR (least recently used first) when\n"
             "                        spills push it past N MiB (default 0 = off)\n"
             "  --store-fsync         fsync each spilled graph (durability)\n"
             "  --serve               read job spec lines from stdin, emit each\n"
             "                        result as it completes (flushed per line);\n"
             "                        SIGTERM/SIGINT drain in-flight jobs, then\n"
             "                        exit normally\n"
             "  --queue-depth N       submission queue capacity (rounded up to a\n"
             "                        power of two; default 0 = auto,\n"
             "                        max(1024, 4*threads)). --serve's in-flight\n"
             "                        window is derived from it\n"
             "  --no-timings          omit per-stage wall-clock fields\n"
             "  --metrics-out FILE    write the final metrics snapshot to FILE\n"
             "                        (Prometheus text if FILE ends in .prom,\n"
             "                        JSON lines otherwise)\n"
             "  --metrics-interval-ms N\n"
             "                        additionally rewrite FILE every N ms while\n"
             "                        running (atomic tmp+rename)\n"
             "  --quiet               no progress lines on stderr\n";
      return 0;
    }
    if (args.has("list")) {
      // One `category name` line each, categories in fixed order and names
      // sorted within — a stable, grep-friendly introspection surface.
      for (const std::string& name : bmh::job_kind_names())
        std::cout << "kind " << name << '\n';
      for (const std::string& scheme : bmh::registered_graph_source_schemes())
        std::cout << "source " << scheme << '\n';
      for (const std::string& name : bmh::registered_algorithm_names())
        std::cout << "algorithm " << name << '\n';
      for (const std::string& name : bmh::registered_undirected_algorithm_names())
        std::cout << "undirected " << name << '\n';
      for (const std::string& name : bmh::analysis_type_names())
        std::cout << "analysis " << name << '\n';
      return 0;
    }

    const bool serve = args.has("serve");
    std::vector<bmh::JobSpec> jobs;
    if (serve) {
      if (args.has("spec") || args.has("demo"))
        throw std::runtime_error("--serve reads stdin; it excludes --spec/--demo");
    } else if (args.has("demo")) {
      jobs = bmh::demo_batch();
    } else if (args.has("spec")) {
      jobs = bmh::parse_job_spec_file(args.get("spec", ""));
    } else {
      std::cerr << "error: need --spec FILE, --serve, --demo or --list (see --help)\n";
      return 2;
    }
    if (!serve && jobs.empty()) {
      std::cerr << "error: job spec contains no jobs\n";
      return 2;
    }

    bmh::EngineConfig config;
    config.threads = static_cast<int>(args.get_int("threads", 1));
    config.threads_per_job = static_cast<int>(args.get_int("threads-per-job", 1));
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const auto cache_mb = args.get_int("graph-cache-mb", 256);
    if (cache_mb < 0) throw std::runtime_error("--graph-cache-mb must be >= 0");
    config.graph_cache_mb = static_cast<std::size_t>(cache_mb);
    config.graph_store_dir = args.get("graph-store", "");
    if (!config.graph_store_dir.empty() && config.graph_cache_mb == 0)
      throw std::runtime_error(
          "--graph-store needs the graph cache (--graph-cache-mb > 0)");
    const auto store_budget_mb = args.get_int("graph-store-budget-mb", 0);
    if (store_budget_mb < 0)
      throw std::runtime_error("--graph-store-budget-mb must be >= 0");
    config.store_budget_mb = static_cast<std::size_t>(store_budget_mb);
    config.store_fsync = args.has("store-fsync");
    const auto queue_depth = args.get_int("queue-depth", 0);
    if (queue_depth < 0) throw std::runtime_error("--queue-depth must be >= 0");
    config.submit_queue_depth = static_cast<std::size_t>(queue_depth);

    bmh::Engine engine(config);

    const std::string metrics_out = args.get("metrics-out", "");
    const auto metrics_interval_ms = args.get_int("metrics-interval-ms", 0);
    if (metrics_interval_ms < 0)
      throw std::runtime_error("--metrics-interval-ms must be >= 0");
    if (metrics_interval_ms > 0 && metrics_out.empty())
      throw std::runtime_error("--metrics-interval-ms needs --metrics-out FILE");
    MetricsWriter metrics_writer(engine, metrics_out,
                                 static_cast<long>(metrics_interval_ms));

    const bool quiet = args.has("quiet");
    const bool include_timings = !args.has("no-timings");
    const auto progress = [&](const bmh::JobResult& r) {
      if (quiet) return;
      if (r.ok)
        std::cerr << "done " << r.name << ": " << r.algorithm << " cardinality "
                  << r.result.cardinality << " in " << r.result.total_seconds
                  << " s\n";
      else
        std::cerr << "FAIL " << r.name << ": " << r.error << '\n';
    };

    std::ofstream file;
    std::ostream* out = &std::cout;
    if (args.has("out")) {
      const std::string path = args.get("out", "");
      file.open(path);
      if (!file) throw std::runtime_error("cannot write '" + path + "'");
      out = &file;
    }

    bmh::Timer timer;
    std::size_t failed = 0;
    std::size_t total = jobs.size();
    if (serve) {
      // The server loop: submit each stdin line as it is read, emit each
      // record the moment its job completes. A window of in-flight jobs
      // applies backpressure so a fast producer cannot queue an unbounded
      // batch; parse failures become ok=false records (a server must
      // outlive bad requests) and consume an index like any other line.
      // The window is the engine's own submission-queue capacity (--queue-
      // depth): staying within it means the blocking submit below never
      // stalls on a full queue — backpressure is applied here, where the
      // reader can stop consuming stdin, not inside the engine.
      ServeState state;
      const std::size_t window = engine.submit_capacity();
      // Callers render the JSON line *before* taking state.mutex — the
      // lock covers only the write/flush/counters, so workers do not
      // convoy on result formatting.
      const auto emit = [&](const bmh::JobResult& r, const std::string& line) {
        *out << line << '\n';
        out->flush();
        progress(r);
        ++state.jobs;
        if (!r.ok) ++state.failed;
      };
      install_drain_handlers();
      std::string line;
      std::size_t index = 0;
      for (std::size_t line_no = 1;
           g_drain_signal == 0 && std::getline(std::cin, line); ++line_no) {
        const std::size_t start = line.find_first_not_of(" \t\r");
        if (start == std::string::npos || line[start] == '#') continue;
        bmh::JobSpec job;
        try {
          job = bmh::parse_job_spec_line(line);
        } catch (const std::exception& e) {
          const bmh::JobResult r = bmh::parse_error_result(
              index++, "line" + std::to_string(line_no), line,
              "line " + std::to_string(line_no) + ": " + e.what());
          const std::string rendered = bmh::to_json_line(r, include_timings);
          // Drain in-flight jobs first so this record leaves in submission
          // order like any other (bad lines are the rare error path; the
          // momentary stall doesn't matter there).
          std::unique_lock<std::mutex> lock(state.mutex);
          state.drained.wait(lock, [&] { return state.in_flight == 0; });
          emit(r, rendered);
          continue;
        }
        if (job.name.empty()) job.name = "job" + std::to_string(index);
        {
          std::unique_lock<std::mutex> lock(state.mutex);
          state.drained.wait(lock, [&] { return state.in_flight < window; });
          ++state.in_flight;
        }
        engine.submit(
            std::move(job),
            [&](bmh::JobResult&& r) {
              const std::string rendered = bmh::to_json_line(r, include_timings);
              std::lock_guard<std::mutex> lock(state.mutex);
              emit(r, rendered);
              --state.in_flight;
              state.drained.notify_all();
            },
            index++);
      }
      if (g_drain_signal != 0 && !quiet)
        std::cerr << "bmh_engine: caught signal " << static_cast<int>(g_drain_signal)
                  << ", draining in-flight jobs\n";
      std::unique_lock<std::mutex> lock(state.mutex);
      state.drained.wait(lock, [&] { return state.in_flight == 0; });
      total = state.jobs;
      failed = state.failed;
      // One machine-readable summary of the serve session, on stderr (the
      // record stream on stdout must stay byte-identical to batch mode).
      // `jobs` equals the records emitted above — CI cross-checks it, and
      // `drained` marks a signal-initiated shutdown (field absent on a
      // normal EOF exit, keeping that output byte-stable).
      const bmh::obs::HistogramData job_latency =
          engine.metrics().histogram_merged("worker", "job");
      std::cerr << "{\"record\":\"serve_metrics\",\"jobs\":" << state.jobs
                << ",\"failed\":" << state.failed
                << (g_drain_signal != 0 ? ",\"drained\":true" : "")
                << ",\"job_count\":" << job_latency.count
                << ",\"p50_ms\":" << job_latency.p50_ns() / 1e6
                << ",\"p99_ms\":" << job_latency.p99_ns() / 1e6 << "}\n";
    } else {
      failed = engine.run(jobs, [&](const bmh::JobResult& r) {
        *out << bmh::to_json_line(r, include_timings) << '\n';
        progress(r);
      });
    }
    // The summary's and the metrics file's spill counts cover every build:
    // nothing is left in the store's write-behind backlog.
    if (engine.store() != nullptr) engine.store()->flush();
    if (args.has("out") && !quiet)
      std::cerr << "wrote " << total << " records to " << args.get("out", "")
                << '\n';

    if (!quiet) {
      const bmh::Engine::Stats stats = engine.stats();
      std::cerr << total - failed << "/" << total << " jobs ok, "
                << engine.threads() << " threads x " << config.threads_per_job
                << " threads/job, " << stats.cold_builds
                << " cold graph builds, " << timer.seconds() << " s total\n";
      if (engine.cache() != nullptr) {
        const bmh::GraphCache::Stats s = stats.cache;
        std::cerr << "graph cache: " << s.hits << " hits, " << s.misses
                  << " misses, " << s.evictions << " evictions, "
                  << s.race_discards << " race discards, " << s.entries
                  << " graphs resident (" << s.bytes / (1024.0 * 1024.0)
                  << " MiB of " << config.graph_cache_mb << ")\n";
        if (engine.store() != nullptr) {
          const bmh::GraphStore::Stats t = engine.store()->stats();
          std::cerr << "graph store: " << s.store_hits << " hits, "
                    << s.store_misses << " misses, " << s.store_spills
                    << " spills, " << t.pruned << " pruned, " << t.io_errors
                    << " io errors, " << t.content_errors << " content errors, "
                    << t.healed << " healed (" << engine.store()->dir() << ")\n";
          if (t.breaker_trips > 0 || engine.store()->breaker_open())
            std::cerr << "graph store breaker: " << t.breaker_trips << " trips, "
                      << t.breaker_skips << " skipped calls, "
                      << (engine.store()->breaker_open() ? "open" : "closed")
                      << " at exit\n";
          if (t.errors_total() > 0)
            std::cerr << "graph store last error: " << engine.store()->last_error()
                      << '\n';
        }
      }
      // Stage latency percentiles from the per-worker histograms, merged
      // across the pool (log-bucketed: ~12.5% worst-case bucket error).
      const bmh::obs::Snapshot snapshot = engine.metrics();
      const auto line = [&](const char* label, const char* metric) {
        const bmh::obs::HistogramData h =
            snapshot.histogram_merged("worker", metric);
        if (h.count == 0) return;
        std::cerr << "latency " << label << ": p50 " << h.p50_ns() / 1e6
                  << " ms, p99 " << h.p99_ns() / 1e6 << " ms ("
                  << h.count << " samples)\n";
      };
      line("job", "job");
      line("queue-wait", "queue_wait");
      line("graph-acquire", "graph_acquire");
      line("match", "stage_match");
    }
    if (!metrics_out.empty()) write_metrics_file(engine, metrics_out);
    return failed == 0 ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
