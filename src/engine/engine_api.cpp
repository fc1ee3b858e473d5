#include "engine/engine_api.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "core/workspace.hpp"
#include "engine/graph_store.hpp"
#include "graph/serialize.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/threading.hpp"

namespace bmh {

std::uint64_t derive_job_seed(std::uint64_t batch_seed, std::size_t index) noexcept {
  return Rng(batch_seed).fork(static_cast<std::uint64_t>(index)).next();
}

const char* to_string(ErrorKind kind) noexcept {
  switch (kind) {
    case ErrorKind::kNone: return "";
    case ErrorKind::kParse: return "parse";
    case ErrorKind::kSourceIo: return "source_io";
    case ErrorKind::kStoreIo: return "store_io";
    case ErrorKind::kBuild: return "build";
    case ErrorKind::kExec: return "exec";
    case ErrorKind::kTimeout: return "timeout";
  }
  return "";
}

JobResult parse_error_result(std::size_t index, std::string name, std::string input,
                             std::string message) {
  JobResult out;
  out.index = index;
  out.name = std::move(name);
  out.input = std::move(input);
  out.ok = false;
  out.error = std::move(message);
  out.error_kind = ErrorKind::kParse;
  return out;
}

namespace {

/// Total tries at acquiring a graph whose failure looked transient: the
/// original attempt plus one retry after a short jittered backoff. Bounded
/// and small on purpose — a worker sleeping in a retry loop is a worker not
/// serving jobs, and persistent failures should surface, not spin.
constexpr int kAcquireAttempts = 2;

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

/// A graph-acquire failure worth one more try: the input exists and the spec
/// is fine, the I/O just failed this instant. Content rejections (a corrupt
/// store file is already healed + rebuilt inside try_load; a malformed spec
/// is invalid_argument) are deterministic and never retried.
[[nodiscard]] bool transient_acquire_error(const std::exception& e) noexcept {
  if (dynamic_cast<const SourceIoError*>(&e) != nullptr) return true;
  if (const auto* f = dynamic_cast<const fp::FailpointError*>(&e); f != nullptr)
    return starts_with(f->site(), "source.");
  return false;
}

/// Maps an escaped exception to its failure domain. `acquire` distinguishes
/// the graph-acquire phase (spec/source/store/build failures) from pipeline
/// execution (everything is exec there — stage code validated its own
/// arguments by then).
[[nodiscard]] ErrorKind classify_error(const std::exception& e,
                                       bool acquire) noexcept {
  if (dynamic_cast<const SourceIoError*>(&e) != nullptr) return ErrorKind::kSourceIo;
  if (dynamic_cast<const GraphFileError*>(&e) != nullptr) return ErrorKind::kStoreIo;
  if (const auto* f = dynamic_cast<const fp::FailpointError*>(&e); f != nullptr) {
    const std::string& site = f->site();
    if (starts_with(site, "source.")) return ErrorKind::kSourceIo;
    if (starts_with(site, "store.") || starts_with(site, "serialize.") ||
        starts_with(site, "mmap.") || starts_with(site, "cache."))
      return ErrorKind::kStoreIo;
    return ErrorKind::kExec;
  }
  if (!acquire) return ErrorKind::kExec;
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr)
    return ErrorKind::kParse;
  return ErrorKind::kBuild;
}

/// One stderr note per process for throwing deliver callbacks — the
/// `callback_errors` counter carries the ongoing tally; repeating the
/// message per job would drown real diagnostics under a hot broken sink.
void warn_callback_error(const char* what) noexcept {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed))
    std::fprintf(stderr,
                 "bmh: a result callback threw ('%s'); the exception was "
                 "contained — callbacks must not throw, further throws are "
                 "counted silently (worker.callback_errors)\n",
                 what);
}

} // namespace

/// A worker's pre-resolved instruments: looked up once at thread start (the
/// find-or-create path takes a mutex), then every per-job update is a
/// relaxed atomic through these pointers — the hot path never touches a
/// lock or an allocation. Also carries the per-job scratch execute() hands
/// back to the publish burst in run_single (single-threaded per worker).
struct Engine::WorkerObs {
  obs::MetricDomain* domain = nullptr;
  obs::Counter* jobs_run = nullptr;
  obs::Counter* jobs_failed = nullptr;
  obs::Counter* direct_builds = nullptr;
  // Per-JobKind slices of jobs_run (their sum), indexed by the enum value,
  // so dashboards can tell a matching-serving engine from an analysis one.
  std::array<obs::Counter*, 3> jobs_run_by_kind{};
  // Per-ErrorKind slices of jobs_failed (their sum), indexed by the enum
  // value: "the disk is dying" (store_io) and "clients send garbage"
  // (parse) are different pages. kNone never labels a failure; it shares
  // the exec slice defensively.
  std::array<obs::Counter*, 7> jobs_failed_by_kind{};
  obs::Counter* io_retries = nullptr;        ///< transient acquire retries taken
  obs::Counter* sprank_solves = nullptr;     ///< exact sprank solves run
  obs::Counter* sprank_memo_hits = nullptr;  ///< sprank served by the graph's memo
  obs::Counter* scaling_solves = nullptr;     ///< SK / Ruiz scalings run
  obs::Counter* scaling_memo_hits = nullptr;  ///< scalings served by the graph's memo
  obs::Counter* callback_errors = nullptr;   ///< deliver callbacks that threw
  obs::Histogram* queue_wait = nullptr;
  obs::Histogram* graph_acquire = nullptr;
  obs::Histogram* job = nullptr;
  obs::Histogram* stage_scale = nullptr;
  obs::Histogram* stage_match = nullptr;
  obs::Histogram* stage_augment = nullptr;
  obs::Histogram* stage_analyze = nullptr;
  obs::Histogram* stage_convert = nullptr;
  obs::Gauge* ws_bytes = nullptr;
  // Scratch for the job being executed:
  std::uint64_t graph_acquire_ns = 0;
  bool direct_build = false;
  std::uint32_t job_io_retries = 0;
};

Engine::WorkerObs Engine::resolve_worker_obs(obs::MetricDomain& domain) {
  WorkerObs wo;
  wo.domain = &domain;
  wo.jobs_run = &domain.counter("jobs_run");
  wo.jobs_failed = &domain.counter("jobs_failed");
  wo.direct_builds = &domain.counter("direct_builds");
  wo.jobs_run_by_kind = {&domain.counter("jobs_run_match"),
                         &domain.counter("jobs_run_undirected_match"),
                         &domain.counter("jobs_run_analyze")};
  obs::Counter* failed_exec = &domain.counter("jobs_failed_exec");
  wo.jobs_failed_by_kind = {failed_exec,  // kNone
                            &domain.counter("jobs_failed_parse"),
                            &domain.counter("jobs_failed_source_io"),
                            &domain.counter("jobs_failed_store_io"),
                            &domain.counter("jobs_failed_build"),
                            failed_exec,
                            &domain.counter("jobs_failed_timeout")};
  wo.io_retries = &domain.counter("io_retries");
  wo.sprank_solves = &domain.counter("sprank_solves");
  wo.sprank_memo_hits = &domain.counter("sprank_memo_hits");
  wo.scaling_solves = &domain.counter("scaling_solves");
  wo.scaling_memo_hits = &domain.counter("scaling_memo_hits");
  wo.callback_errors = &domain.counter("callback_errors");
  wo.queue_wait = &domain.histogram("queue_wait");
  wo.graph_acquire = &domain.histogram("graph_acquire");
  wo.job = &domain.histogram("job");
  wo.stage_scale = &domain.histogram("stage_scale");
  wo.stage_match = &domain.histogram("stage_match");
  wo.stage_augment = &domain.histogram("stage_augment");
  wo.stage_analyze = &domain.histogram("stage_analyze");
  wo.stage_convert = &domain.histogram("stage_convert");
  wo.ws_bytes = &domain.gauge("ws_reserved_bytes");
  return wo;
}

/// Resolves the auto-sized knobs before the member init list runs: the
/// slot array is fixed-size at construction, so threads and queue depth
/// must be final by the time it initializes.
EngineConfig Engine::resolve(EngineConfig config) {
  int threads = config.threads > 0 ? config.threads : num_procs();
  config.threads = std::max(threads, 1);
  std::size_t depth = config.submit_queue_depth != 0
                          ? config.submit_queue_depth
                          : std::max<std::size_t>(
                                1024, static_cast<std::size_t>(config.threads) * 4);
  config.submit_queue_depth = std::bit_ceil(std::max<std::size_t>(depth, 2));
  return config;
}

Engine::Engine(EngineConfig config)
    : config_(resolve(std::move(config))),
      threads_(config_.threads),
      slots_(config_.submit_queue_depth) {
  if (config_.graph_cache != nullptr) {
    cache_ = config_.graph_cache;
  } else if (config_.graph_cache_mb > 0) {
    GraphCache::Options cache_options;
    cache_options.max_bytes = config_.graph_cache_mb << 20;
    if (!config_.graph_store_dir.empty()) {
      GraphStore::Options store_options;
      store_options.max_bytes = config_.store_budget_mb << 20;
      store_options.fsync = config_.store_fsync;
      owned_store_ =
          std::make_unique<GraphStore>(config_.graph_store_dir, store_options);
      cache_options.store = owned_store_.get();
    }
    owned_cache_ = std::make_unique<GraphCache>(cache_options);
    cache_ = owned_cache_.get();
  }

  // Observability plumbing precedes the threads so the vectors are
  // immutable (and the registry list stable) while the pool runs: one
  // single-writer metric domain and one bounded trace journal per worker,
  // with the cache's and store's multi-writer domains attached alongside —
  // Engine::metrics() reads all of them through one registry.
  worker_domains_.reserve(static_cast<std::size_t>(threads_));
  journals_.reserve(static_cast<std::size_t>(threads_));
  for (int t = 0; t < threads_; ++t) {
    worker_domains_.push_back(&registry_.create_domain("worker", t));
    journals_.push_back(std::make_unique<obs::TraceJournal>());
    // Materialize the worker's instruments now, on the constructing thread:
    // a metrics() snapshot taken before a worker claims its first job must
    // already see the domain's full shape (all counters/histograms at zero),
    // not a partially-populated domain.
    (void)resolve_worker_obs(*worker_domains_.back());
  }
  if (cache_ != nullptr) registry_.attach(&cache_->metric_domain());
  if (GraphStore* st = cache_ != nullptr ? cache_->store() : nullptr; st != nullptr)
    registry_.attach(&st->metric_domain());
  // The process-wide failpoint counters ride along in every metrics()
  // snapshot, so a fault-schedule run can be audited from the same exporter
  // as everything else; until a site is armed the domain is empty and
  // exports nothing. (The domain is a process singleton; several engines
  // may each attach it to their own registry.)
  registry_.attach(&fp::metric_domain());

  // Each std::thread owns its OpenMP nthreads ICV, so the per-job budget set
  // inside a pipeline never leaks across workers.
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int t = 0; t < threads_; ++t)
    workers_.emplace_back([this, t] { worker_loop(t); });
}

Engine::~Engine() {
  {
    LockGuard lock(queue_mutex_);
    stopping_ = true;
  }
  not_empty_.notify_all();
  for (std::thread& t : workers_) t.join();
}

GraphStore* Engine::store() const noexcept {
  return cache_ != nullptr ? cache_->store() : nullptr;
}

void Engine::worker_loop(int worker) {
  // Each worker owns one scratch arena, reused across every job it ever
  // executes. After its first job of each shape the pipeline hot path
  // performs no heap allocations, and the warmth survives across batches
  // for the engine's whole lifetime.
  Workspace ws;

  // Re-resolve this worker's instruments (pure find: the constructor already
  // materialized them) and bind its trace journal; from here on every job's
  // accounting is relaxed atomics through WorkerObs — nothing
  // observability-related allocates or locks on the hot path.
  WorkerObs wo =
      resolve_worker_obs(*worker_domains_[static_cast<std::size_t>(worker)]);
  obs::bind_thread_journal(journals_[static_cast<std::size_t>(worker)].get());

  for (;;) {
    SubmitSlot claimed;
    bool wake_submitters = false;
    {
      UniqueLock lock(queue_mutex_);
      // Every accepted job runs: a worker leaves only once stopping, with
      // nothing queued and no submitter still waiting for room.
      while (queued_ == 0 && !(stopping_ && blocked_submitters_ == 0))
        not_empty_.wait(lock);
      if (queued_ == 0) break;
      // Claim the job and free its slot before executing: the capacity
      // bounds *queued* jobs, and a slot pinned for a job's whole runtime
      // would halve the effective window.
      claimed = std::move(slots_[head_]);
      head_ = (head_ + 1) & (slots_.size() - 1);
      --queued_;
      // Blocked submitters are woken in one go once half the queue is free,
      // not one per claimed job: a wake per claim cut a one-worker,
      // four-producer drain by a third or more.
      wake_submitters =
          blocked_submitters_ != 0 && queued_ <= slots_.size() / 2;
    }
    if (wake_submitters) not_full_.notify_all();
    run_single(claimed, ws, wo);
  }
  // This worker may have seen the last blocked submitter leave; idle peers
  // waiting on that must re-check the exit condition too.
  not_empty_.notify_all();
}

void Engine::run_single(const SubmitSlot& claimed, Workspace& ws, WorkerObs& wo) {
  const std::uint64_t claimed_ns = obs::now_ns();
  const std::uint64_t queue_wait_ns =
      claimed_ns > claimed.enqueue_ns ? claimed_ns - claimed.enqueue_ns : 0;
  obs::record_phase("queue_wait", claimed.enqueue_ns, queue_wait_ns);
  wo.graph_acquire_ns = 0;
  wo.direct_build = false;
  wo.job_io_retries = 0;
  JobResult result = execute(claimed.job, claimed.index, ws, wo);
  // One seqlock-bracketed burst publishes everything the job counts: a
  // concurrent metrics() snapshot sees all of it or none of it — jobs_run
  // can never lead its own latency sample, its failure count or its
  // per-kind slice within one worker domain.
  {
    obs::PublishGuard guard(*wo.domain);
    wo.jobs_run->inc();
    wo.jobs_run_by_kind[static_cast<std::size_t>(result.kind)]->inc();
    if (!result.ok) {
      wo.jobs_failed->inc();
      wo.jobs_failed_by_kind[static_cast<std::size_t>(result.error_kind)]->inc();
    }
    if (wo.job_io_retries != 0) wo.io_retries->inc(wo.job_io_retries);
    if (wo.direct_build) wo.direct_builds->inc();
    if (result.result.sprank_source == SprankSource::kSolved) wo.sprank_solves->inc();
    if (result.result.sprank_source == SprankSource::kMemo) wo.sprank_memo_hits->inc();
    if (result.result.scaling_source == ScalingSource::kSolved) wo.scaling_solves->inc();
    if (result.result.scaling_source == ScalingSource::kMemo) wo.scaling_memo_hits->inc();
    wo.queue_wait->record(queue_wait_ns);
    wo.graph_acquire->record(wo.graph_acquire_ns);
    wo.job->record(obs::now_ns() - claimed_ns);
    for (const StageStats& st : result.result.stages) {
      if (st.stage == "scale") wo.stage_scale->record_seconds(st.seconds);
      else if (st.stage == "match") wo.stage_match->record_seconds(st.seconds);
      else if (st.stage == "augment") wo.stage_augment->record_seconds(st.seconds);
      else if (st.stage == "analyze") wo.stage_analyze->record_seconds(st.seconds);
      else if (st.stage == "convert") wo.stage_convert->record_seconds(st.seconds);
    }
    wo.ws_bytes->set(static_cast<std::int64_t>(ws.bytes_reserved()));
  }
  // Containment boundary: `done` runs caller code (a submit callback, a
  // batch sink) on this pool thread. A throw costs the caller its own
  // notification and nothing else: the counter ticks, one note hits stderr
  // per process, and every other job still delivers.
  try {
    if (claimed.done) claimed.done(std::move(result));
  } catch (const std::exception& e) {
    wo.callback_errors->inc();
    warn_callback_error(e.what());
  } catch (...) {
    wo.callback_errors->inc();
    warn_callback_error("non-exception throw");
  }
}

JobResult Engine::execute(const JobSpec& job, std::size_t index, Workspace& ws,
                          WorkerObs& wo) {
  BMH_SPAN("job");
  JobResult out;
  out.index = index;
  out.name = job.name;
  out.input = job.input.spec;
  out.kind = job.kind;
  out.algorithm = job.pipeline.algorithm;
  out.seed = job.seed.value_or(derive_job_seed(config_.seed, index));
  // The deadline clock starts when a worker picks the job up (queue wait is
  // the engine's fault, not the job's) and is enforced at the failure
  // boundaries: after acquire and on entry to every pipeline stage.
  // A budget past the clock's range saturates to a deadline never reached.
  std::int64_t deadline_ns = 0;
  if (job.timeout_ms > 0) {
    constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
    const std::int64_t now = steady_now_ns();
    const auto headroom_ms = static_cast<std::uint64_t>(kNever - now) / 1'000'000;
    deadline_ns = job.timeout_ms >= headroom_ms
                      ? kNever
                      : now + static_cast<std::int64_t>(job.timeout_ms) * 1'000'000;
  }
  // Which phase an exception escaped from drives its classification: during
  // acquire a std::invalid_argument is a spec problem (parse) and a generic
  // failure is a build problem; once the pipeline runs, failures are exec.
  bool acquiring = true;
  try {
    // Cache-served graphs are shared immutable state; `shared` keeps the
    // entry alive across the pipeline however the cache evicts. Results are
    // identical with or without the cache — build_graph is deterministic in
    // (spec, effective seed).
    std::shared_ptr<const BipartiteGraph> shared;
    std::optional<BipartiteGraph> local;
    const BipartiteGraph* graph = nullptr;
    const std::uint64_t acquire_start = obs::now_ns();
    {
      BMH_SPAN("graph_acquire");
      // Transient-I/O retry: one extra attempt, short jittered backoff. The
      // store tier never needs this (try_load/spill absorb their own
      // failures and fall back to building), but a source read can fail for
      // reasons that pass an instant later. Deterministic failures — spec
      // errors, content rejections — rethrow immediately; see
      // transient_acquire_error.
      for (int attempt = 1;; ++attempt) {
        try {
          if (cache_ != nullptr) {
            shared = cache_->get_or_build(job.input, out.seed);
            graph = shared.get();
          } else {
            local.emplace(build_graph(job.input, out.seed));
            wo.direct_build = true;  // counted in run_single's publish burst
            graph = &*local;
          }
          break;
        } catch (const std::exception& e) {
          if (attempt >= kAcquireAttempts || !transient_acquire_error(e)) throw;
          ++wo.job_io_retries;
          // Jitter off the job seed: deterministic for a given job, spread
          // across a batch so retries of many jobs don't re-collide.
          const std::uint64_t jitter_us =
              500 + Rng(out.seed).fork(static_cast<std::uint64_t>(attempt)).next() % 1500;
          std::this_thread::sleep_for(std::chrono::microseconds(jitter_us));
        }
      }
    }
    wo.graph_acquire_ns = obs::now_ns() - acquire_start;
    out.rows = graph->num_rows();
    out.cols = graph->num_cols();
    out.edges = graph->num_edges();
    if (deadline_ns != 0 && steady_now_ns() >= deadline_ns)
      throw JobTimeoutError("deadline exceeded after graph acquire (timeout_ms=" +
                            std::to_string(job.timeout_ms) + ")");

    PipelineConfig config = job.pipeline;
    config.options.seed = out.seed;
    config.deadline_ns = deadline_ns;
    // The spec's thread budget wins; otherwise the engine-wide per-job one.
    if (config.options.threads <= 0) config.options.threads = config_.threads_per_job;
    acquiring = false;
    // Every kind shares the acquire path above — one pool, one cache, one
    // store — and diverges only in which pipeline body runs.
    switch (job.kind) {
      case JobKind::kMatch:
        run_pipeline_ws(*graph, config, ws, out.result);
        break;
      case JobKind::kUndirectedMatch:
        run_undirected_pipeline_ws(*graph, config, ws, out.result);
        break;
      case JobKind::kAnalyze:
        run_analyze_pipeline_ws(*graph, config, ws, out.result);
        break;
    }
    out.ok = true;
  } catch (const JobTimeoutError& e) {
    out.error = e.what();
    out.error_kind = ErrorKind::kTimeout;
  } catch (const std::exception& e) {
    out.error = e.what();
    out.error_kind = classify_error(e, acquiring);
  } catch (...) {
    // Last-resort containment: whatever escaped (a non-std throw from a
    // kernel defect, say) must not unwind into worker_loop and take the
    // thread — and the whole process — with it.
    out.error = "unknown non-exception throw";
    out.error_kind = acquiring ? ErrorKind::kBuild : ErrorKind::kExec;
  }
  return out;
}

std::future<JobResult> Engine::submit(JobSpec job) {
  auto promise = std::make_shared<std::promise<JobResult>>();
  std::future<JobResult> future = promise->get_future();
  submit(std::move(job), [promise](JobResult&& result) {
    promise->set_value(std::move(result));
  });
  return future;
}

/// Moves the submit into the slot behind the last queued job. The auto
/// derivation index is claimed here, once room is certain, so a failed
/// try_submit never leaves a hole in the index sequence.
void Engine::enqueue(JobSpec&& job, std::function<void(JobResult&&)>&& done,
                     std::optional<std::size_t> index) {
  SubmitSlot& slot = slots_[(head_ + queued_) & (slots_.size() - 1)];
  slot.job = std::move(job);  // moves: a warm submit allocates nothing
  slot.done = std::move(done);
  slot.index = index.has_value() ? *index : submit_seq_++;
  slot.enqueue_ns = obs::now_ns();
  ++queued_;
}

void Engine::submit(JobSpec job, std::function<void(JobResult&&)> done,
                    std::optional<std::size_t> index) {
  {
    UniqueLock lock(queue_mutex_);
    // Backpressure: submit_capacity() jobs are already queued. Workers free
    // a slot the moment they claim its job, so the wait is bounded by claim
    // latency, not job runtime.
    if (queued_ == slots_.size()) {
      ++blocked_submitters_;
      while (queued_ == slots_.size()) not_full_.wait(lock);
      --blocked_submitters_;
    }
    enqueue(std::move(job), std::move(done), index);
  }
  not_empty_.notify_one();
}

bool Engine::try_submit(JobSpec&& job, std::function<void(JobResult&&)>&& done,
                        std::optional<std::size_t> index) {
  {
    LockGuard lock(queue_mutex_);
    if (queued_ == slots_.size()) return false;  // caller keeps job and callback
    enqueue(std::move(job), std::move(done), index);
  }
  not_empty_.notify_one();
  return true;
}

/// The batch path: job i is submitted with derivation index i, so a batch
/// is byte-identical to the same jobs submitted one by one, and shares the
/// queue's backpressure with every other producer. `deliver` runs on worker
/// threads under the countdown's mutex, and the count drops under the same
/// lock, so this frame cannot return while a worker is still inside its
/// callback — even one whose `deliver` throws. The callback captures two
/// references, small enough for std::function's inline buffer.
void Engine::run_indexed(const std::vector<JobSpec>& jobs,
                         const std::function<void(JobResult&&)>& deliver) {
  struct Countdown {
    Mutex mutex;
    std::condition_variable_any all_done;
    std::size_t remaining = 0;
  } countdown;
  countdown.remaining = jobs.size();
  for (std::size_t i = 0; i < jobs.size(); ++i)
    submit(JobSpec(jobs[i]),
           [&countdown, &deliver](JobResult&& result) {
             LockGuard lock(countdown.mutex);
             if (--countdown.remaining == 0) countdown.all_done.notify_all();
             deliver(std::move(result));
           },
           i);
  UniqueLock lock(countdown.mutex);
  while (countdown.remaining != 0) countdown.all_done.wait(lock);
}

std::size_t Engine::run(const std::vector<JobSpec>& jobs,
                        const std::function<void(const JobResult&)>& sink) {
  // Out-of-order finishers park here until every lower index has been
  // emitted; in the steady state the window holds at most ~threads records.
  std::map<std::size_t, JobResult> pending;
  std::size_t next_emit = 0;
  std::size_t failed = 0;
  run_indexed(jobs, [&](JobResult&& result) {
    pending.emplace(result.index, std::move(result));
    while (!pending.empty() && pending.begin()->first == next_emit) {
      const JobResult& head = pending.begin()->second;
      if (!head.ok) ++failed;
      if (sink) sink(head);
      pending.erase(pending.begin());  // Matching and all — memory stays bounded
      ++next_emit;
    }
  });
  return failed;
}

std::vector<JobResult> Engine::run_collect(const std::vector<JobSpec>& jobs) {
  std::vector<JobResult> results(jobs.size());
  run_indexed(jobs, [&](JobResult&& result) {
    results[result.index] = std::move(result);
  });
  return results;
}

obs::Snapshot Engine::metrics() const { return registry_.snapshot(); }

std::vector<obs::TraceEvent> Engine::trace_events() const {
  std::vector<obs::TraceEvent> out;
  for (const auto& journal : journals_) {
    std::vector<obs::TraceEvent> events = journal->events();
    out.insert(out.end(), events.begin(), events.end());
  }
  std::sort(out.begin(), out.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

Engine::Stats Engine::stats() const {
  // A view over metrics(): the worker counters are read through each
  // domain's seqlock, so every per-worker triple (jobs_run, jobs_failed,
  // direct_builds) is a consistent post-job state — the totals can lag
  // jobs mid-publish on other workers, never show a partial job.
  Stats stats;
  const obs::Snapshot snap = registry_.snapshot();
  stats.jobs_run = snap.counter_total("worker", "jobs_run");
  stats.jobs_failed = snap.counter_total("worker", "jobs_failed");
  stats.cold_builds = snap.counter_total("worker", "direct_builds");
  if (cache_ != nullptr) {
    stats.cache = cache_->stats();
    // Every cache miss either mmap-loaded from the store or ran
    // build_graph, so the cache-attributed cold builds are exactly
    // misses - store_hits — no per-call plumbing needed, and exact under
    // concurrency (each counter increments once per event). With a shared
    // external cache these counters are cache-wide, not per-engine; a
    // GraphStore additionally shared across *caches* can even push its
    // hit count past this cache's misses, so clamp instead of wrapping.
    if (stats.cache.misses > stats.cache.store_hits)
      stats.cold_builds += stats.cache.misses - stats.cache.store_hits;
  }
  return stats;
}

} // namespace bmh
