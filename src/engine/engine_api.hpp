#pragma once
/// \file engine_api.hpp
/// \brief bmh::Engine — the long-lived serving façade over the matching
/// engine's pool, cache, and store.
///
/// A server constructs the expensive state once and keeps it warm across
/// requests. `Engine` is that object:
///
///   bmh::EngineConfig config;
///   config.threads = 0;                      // auto: one per processor
///   config.graph_store_dir = "/var/cache/bmh";
///   bmh::Engine engine(config);              // pool + arenas + cache + store
///
///   auto future = engine.submit(job);        // single job -> std::future
///   engine.run(jobs, sink);                  // batch, index-ordered stream
///   auto results = engine.run_collect(jobs); // batch, collected vector
///
/// Consecutive batches and interleaved submits reuse the same worker
/// threads, the same per-worker scratch arenas (warm after the first job of
/// each shape: zero heap allocations on the pipeline hot path), and the
/// same graph cache — a second identical batch performs zero cold graph
/// builds (`Stats::cold_builds`), serving every instance from memory or the
/// persistent store.
///
/// Determinism contract: the job at batch index i — or the i-th `submit`
/// since construction — runs with `derive_job_seed(config.seed, i)` unless
/// its spec pins a seed, and batch emission is index-ordered, so output is
/// byte-identical for any `threads` value.
///
/// One work path: every job enters through `submit`. A batch (`run`,
/// `run_collect`) is job i submitted with explicit derivation index i, so
/// batches and single submits share one FIFO and one backpressure bound.
/// The FIFO is a fixed circular array of `submit_queue_depth` job slots
/// behind one mutex: a warm `submit` moves its job into a preallocated slot
/// and performs no heap allocation. When every slot is in use, blocking
/// `submit` — and therefore `run` — waits for capacity and `try_submit`
/// returns false immediately. Size it with EngineConfig::submit_queue_depth
/// and read the resolved value back from submit_capacity().
///
/// Threading: every method is safe to call from multiple threads.
/// `run`/`run_collect` block the caller until their batch completes (never
/// call them from a sink or a worker callback — the pool cannot finish a
/// batch that is waiting on itself). The destructor finishes all accepted
/// work first, so a pending `submit` future never ends up with a broken
/// promise.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/graph_cache.hpp"
#include "engine/job.hpp"
#include "engine/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_annotations.hpp"

namespace bmh {

class GraphStore;

/// Everything an Engine owns, fixed at construction.
struct EngineConfig {
  /// Worker threads in the pool (the number of jobs in flight). 0
  /// auto-detects one per processor; the resolved value is reported by
  /// Engine::threads().
  int threads = 1;
  /// OpenMP budget inside each job's pipeline stages; 0 = ambient. A
  /// `threads=` in the job spec wins over this default.
  int threads_per_job = 1;
  /// Base seed: job index i runs with derive_job_seed(seed, i) unless its
  /// spec pins one.
  std::uint64_t seed = 1;
  /// Byte budget (MiB) of the engine's graph cache; 0 disables caching
  /// (every job rebuilds its graph — bit-identical results either way).
  std::size_t graph_cache_mb = 256;
  /// Non-empty: persistent tier directory (see graph_store.hpp). Built
  /// graphs spill there; later batches and restarted processes mmap-load
  /// them instead of rebuilding. Requires graph_cache_mb > 0; ignored when
  /// `graph_cache` is set (configure that cache's own store instead).
  std::string graph_store_dir;
  /// Byte budget (MiB) over the store directory; 0 = unbounded. When a
  /// spill pushes the directory past the budget, least-recently-used files
  /// (by mtime — loads touch their file) are pruned until it fits.
  std::size_t store_budget_mb = 0;
  /// fsync every spilled file (and its directory entry) before it becomes
  /// visible: survives unclean shutdown at the cost of slower spills.
  bool store_fsync = false;
  /// Caller-owned cache shared across engines (must outlive the engine);
  /// overrides graph_cache_mb / graph_store_dir.
  GraphCache* graph_cache = nullptr;
  /// Capacity of the submission queue: the number of jobs that may be
  /// queued (not yet claimed by a worker) at once, batch jobs included.
  /// Rounded up to a power of two; 0 auto-sizes to max(1024, 4 * threads).
  /// When the queue is full, blocking `submit` and `run` wait for a worker
  /// to claim a job and `try_submit` fails fast — this is the engine's
  /// backpressure boundary, and servers should derive their in-flight
  /// window from it (see Engine::submit_capacity and bmh_engine --serve).
  std::size_t submit_queue_depth = 0;
};

/// Failure taxonomy of a job record: which failure domain produced an
/// ok=false result. Every failing record carries one (kNone only on
/// never-executed default-constructed results); the JSON line emits it as
/// `error_kind` and the worker domains count a `jobs_failed_<kind>` slice
/// per value, so dashboards separate "the disk is dying" (store_io) from
/// "clients send garbage" (parse) at a glance.
enum class ErrorKind : std::uint8_t {
  kNone = 0,   ///< not a failure (or predates execution)
  kParse,      ///< the job spec line / graph spec never parsed
  kSourceIo,   ///< reading the source's backing input failed (transient)
  kStoreIo,    ///< the cache/store tier failed outside its own fallbacks
  kBuild,      ///< materializing the graph failed (generator, memory)
  kExec,       ///< a pipeline stage failed
  kTimeout,    ///< the job overran its timeout_ms= budget
};

/// Canonical token for a kind ("parse", "source_io", ...; "" for kNone) —
/// what the JSON record carries.
[[nodiscard]] const char* to_string(ErrorKind kind) noexcept;

/// The per-job record the engine emits (one JSON line each, see json.hpp).
struct JobResult {
  std::size_t index = 0;    ///< position in the batch (results are index-ordered)
  std::string name;
  std::string input;        ///< the graph spec string
  JobKind kind = JobKind::kMatch;  ///< workload the job ran
  std::string algorithm;    ///< registry name / analysis type the pipeline ran
  std::uint64_t seed = 0;   ///< effective seed the job used
  vid_t rows = 0;
  vid_t cols = 0;
  eid_t edges = 0;
  bool ok = false;          ///< false: `error` describes the failure
  std::string error;
  ErrorKind error_kind = ErrorKind::kNone;  ///< failure domain when !ok
  PipelineResult result;    ///< valid only when ok
};

/// A ready-made ok=false record for an input line that never became a job
/// (spec-line parse failure): error_kind=parse, `message` in `error`. The
/// CLI serve loop emits these so hostile input yields exactly one
/// well-formed record per line, never a crash and never silence.
[[nodiscard]] JobResult parse_error_result(std::size_t index, std::string name,
                                           std::string input, std::string message);

/// The deterministic seed job `index` runs with when its spec pins none.
[[nodiscard]] std::uint64_t derive_job_seed(std::uint64_t batch_seed,
                                            std::size_t index) noexcept;

class Engine {
public:
  /// Session counters, cumulative since construction. `cold_builds` is the
  /// number of graph materializations that ran their generator / read their
  /// file — as opposed to being served from the memory cache or mmap-loaded
  /// from the store — so a warm engine re-running a batch it has seen
  /// reports a cold_builds delta of zero. (Failed materializations — bad
  /// spec, unreadable file — count as attempts; with a shared external
  /// cache the cache-attributed share is cache-wide, not per-engine.)
  /// `cache` aggregates the graph cache's own counters (all zero when
  /// caching is disabled).
  ///
  /// Consistency model (this is a view over metrics(), see there): the
  /// worker totals are atomic per worker — a snapshot never observes half a
  /// job, e.g. jobs_run counted but its failure not — and monotone but
  /// skewed across workers and the cache/store domains by at most the jobs
  /// in flight while the snapshot was taken.
  struct Stats {
    std::uint64_t jobs_run = 0;     ///< results delivered (ok or not)
    std::uint64_t jobs_failed = 0;  ///< ok=false results among them
    std::uint64_t cold_builds = 0;  ///< graphs built from spec, not served
    GraphCache::Stats cache;
  };

  /// Starts the worker pool (config.threads, 0 = one per processor) and
  /// builds the cache/store tiers. Throws std::runtime_error if the store
  /// directory cannot be created.
  explicit Engine(EngineConfig config = {});

  /// Finishes every accepted job (pending submits included), then joins the
  /// pool and releases the engine-owned cache and store.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// The resolved pool size (config.threads, with 0 auto-detected).
  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// The configuration the engine runs with, `threads` resolved.
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  /// Enqueues one job; the future is fulfilled with its JobResult (a failing
  /// job fulfils with ok=false, it never throws through the future). The
  /// job's derivation index — JobResult::index, and the seed when the spec
  /// pins none — is the number of prior submits, so a fixed submission
  /// order reproduces byte-identical results for any pool size.
  [[nodiscard]] std::future<JobResult> submit(JobSpec job);

  /// Callback form for servers: `done` is invoked once, from a worker
  /// thread, as soon as the job completes (completion order across
  /// submits — serialize output yourself, e.g. bmh_engine --serve).
  /// `index`, when given, overrides the automatic submission counter as the
  /// job's derivation index (JobResult::index and the derived seed) — the
  /// replay form: a server feeding jobs from a numbered stream can keep its
  /// own numbering even when some stream entries never become jobs.
  /// Explicit-index submits do not advance the automatic counter.
  void submit(JobSpec job, std::function<void(JobResult&&)> done,
              std::optional<std::size_t> index = std::nullopt);

  /// Non-blocking sibling of the callback `submit`: accepts the job only if
  /// a submission slot is free right now, otherwise returns false with both
  /// arguments left intact (the caller keeps its job and callback and can
  /// retry, shed load, or push back on its own client). On false the
  /// automatic derivation counter has not advanced — a later successful
  /// submit gets the index this one would have. This is the open-loop
  /// server path: never blocks on queue capacity.
  [[nodiscard]] bool try_submit(JobSpec&& job,
                                std::function<void(JobResult&&)>&& done,
                                std::optional<std::size_t> index = std::nullopt);

  /// The resolved submission-queue capacity
  /// (EngineConfig::submit_queue_depth after auto-sizing and power-of-two
  /// rounding): the maximum number of jobs that can be queued unclaimed
  /// before blocking `submit` and `run` wait and `try_submit` fails.
  [[nodiscard]] std::size_t submit_capacity() const noexcept {
    return config_.submit_queue_depth;
  }

  /// Runs a batch: `sink` receives every JobResult exactly once, in batch
  /// index order, from worker threads (serialized internally); each record
  /// is dropped as soon as the callback returns, so memory stays bounded by
  /// the pool's out-of-order window. Blocks until the batch completes;
  /// returns the number of failed (ok=false) jobs.
  std::size_t run(const std::vector<JobSpec>& jobs,
                  const std::function<void(const JobResult&)>& sink);

  /// Runs a batch and collects the results in index order.
  [[nodiscard]] std::vector<JobResult> run_collect(const std::vector<JobSpec>& jobs);

  [[nodiscard]] Stats stats() const;

  /// Full metrics snapshot: one domain per worker ("worker", instances
  /// 0..threads-1) plus the graph cache's and store's domains when
  /// configured. Each worker domain is read atomically with respect to that
  /// worker's per-job update bursts (a seqlock brackets them), so per-worker
  /// invariants — jobs_failed <= jobs_run, latency counts == jobs_run —
  /// hold in every snapshot; across domains the values are monotone but may
  /// be skewed by the jobs in flight while the snapshot walked them. The
  /// per-kind jobs_run_* and per-ErrorKind jobs_failed_* slices publish in
  /// the same burst, so within a worker domain they always sum to jobs_run
  /// and jobs_failed.
  /// Feed the result to obs::prometheus_text / obs::json_lines_text
  /// (obs/export.hpp), or aggregate with Snapshot::aggregated().
  [[nodiscard]] obs::Snapshot metrics() const;

  /// The resident trace events of every worker journal, merged and ordered
  /// by start time. Each worker keeps a bounded ring (the newest ~4096
  /// spans: pipeline stages, graph acquisition, cache/store phases,
  /// queue-wait); older events have wrapped away. Safe to call while jobs
  /// run — events being overwritten mid-read are skipped, never torn.
  [[nodiscard]] std::vector<obs::TraceEvent> trace_events() const;

  /// The graph cache (engine-owned or the configured external one), or
  /// nullptr when caching is disabled.
  [[nodiscard]] GraphCache* cache() const noexcept { return cache_; }

  /// The persistent store tier, or nullptr when none is configured.
  [[nodiscard]] GraphStore* store() const noexcept;

private:
  struct WorkerObs;

  /// One queued submit. Producers move the job and callback in (moving
  /// allocates nothing); a worker moves them back out when it claims the
  /// job, so the slot is free again before the job executes.
  struct SubmitSlot {
    JobSpec job;
    std::function<void(JobResult&&)> done;
    std::size_t index = 0;         ///< derivation index (see submit)
    std::uint64_t enqueue_ns = 0;  ///< obs::now_ns() at acceptance
  };

  [[nodiscard]] static EngineConfig resolve(EngineConfig config);
  static WorkerObs resolve_worker_obs(obs::MetricDomain& domain);
  void enqueue(JobSpec&& job, std::function<void(JobResult&&)>&& done,
               std::optional<std::size_t> index) BMH_REQUIRES(queue_mutex_);
  void run_indexed(const std::vector<JobSpec>& jobs,
                   const std::function<void(JobResult&&)>& deliver);
  void worker_loop(int worker);
  void run_single(const SubmitSlot& claimed, Workspace& ws, WorkerObs& wo);
  JobResult execute(const JobSpec& job, std::size_t index, Workspace& ws,
                    WorkerObs& wo);

  EngineConfig config_;
  int threads_ = 1;
  std::unique_ptr<GraphStore> owned_store_;
  std::unique_ptr<GraphCache> owned_cache_;
  GraphCache* cache_ = nullptr;

  /// The submission queue: `queued_` jobs in acceptance order, from
  /// `slots_[head_]` on, in a circular array of submit_capacity() slots.
  /// condition_variable_any (not condition_variable): the annotated
  /// bmh::Mutex is not a std::mutex, and _any waits on any BasicLockable.
  Mutex queue_mutex_;
  std::condition_variable_any not_empty_;  ///< workers: a job or shutdown
  std::condition_variable_any not_full_;   ///< blocking submits: room
  std::vector<SubmitSlot> slots_ BMH_GUARDED_BY(queue_mutex_);
  std::size_t head_ BMH_GUARDED_BY(queue_mutex_) = 0;
  std::size_t queued_ BMH_GUARDED_BY(queue_mutex_) = 0;
  /// Submitters waiting on not_full_. Workers wake them once the queue is
  /// at most half full, and do not exit while any remain.
  std::size_t blocked_submitters_ BMH_GUARDED_BY(queue_mutex_) = 0;
  /// Next automatic derivation index.
  std::size_t submit_seq_ BMH_GUARDED_BY(queue_mutex_) = 0;
  bool stopping_ BMH_GUARDED_BY(queue_mutex_) = false;

  /// One metric domain + trace journal per worker (created before the
  /// threads start, so the vectors are immutable while the pool runs);
  /// the cache's and store's domains are attached alongside.
  obs::Registry registry_;
  std::vector<obs::MetricDomain*> worker_domains_;
  std::vector<std::unique_ptr<obs::TraceJournal>> journals_;

  std::vector<std::thread> workers_;
};

} // namespace bmh
