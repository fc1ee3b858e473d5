#pragma once
/// \file graph_store.hpp
/// \brief File-backed persistent tier of the graph cache.
///
/// A GraphStore is a directory of serialized graphs (graph/serialize.hpp)
/// keyed by the same canonical `(GraphSpec, effective seed)` text the
/// in-memory GraphCache uses, so the two tiers address identical content:
/// what one process built and spilled, a restarted process mmap-loads
/// instead of rebuilding — zero-copy, kernel-page-shared across processes.
///
/// Filenames are the 64-bit FNV-1a hash of the key (hex, `.bmg` suffix);
/// the full key is embedded in the file and verified on load, so a hash
/// collision degrades to a miss instead of serving the wrong graph.
///
/// Robustness contract: `try_load` never throws and never serves a corrupt
/// graph — a file that fails any format, CRC or structural check counts as
/// a content error (`Stats::content_errors`, message in `last_error()`),
/// is unlinked so the slot self-heals (`Stats::healed`), and the caller
/// falls back to building; transient I/O trouble counts as
/// `Stats::io_errors` and leaves the file alone. Spills write through a
/// process-unique temporary and an atomic rename, so concurrent spillers
/// (threads or whole processes sharing the directory) are safe.
///
/// Repeated *I/O* errors (never content rejections) trip a circuit
/// breaker: after `Options::breaker_threshold` consecutive failures the
/// store tier disables itself for `Options::breaker_cooldown_ms` — loads
/// report misses and spills return false immediately instead of hammering
/// a dead disk — then closes again and retries. The `breaker_open` gauge
/// and a one-line stderr note per trip make the state visible.
///
/// Lifecycle: `Options::max_bytes` puts a byte budget over the directory.
/// When a spill pushes the `.bmg` payload past the budget, `prune` evicts
/// least-recently-used files — recency is mtime, which `try_load` touches
/// on every hit, so hot keys survive and stale ones age out. A pruned key
/// simply rebuilds (and re-spills) on next use; correctness never depends
/// on a file being present. `Options::fsync` makes each spill durable
/// against unclean shutdown (file and directory entry synced before the
/// rename publishes it). Crashed spillers leave `.tmp.` files behind —
/// invisible to the `.bmg` budget — so the opening scan and every prune()
/// also sweep temporaries older than a grace period.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "graph/bipartite_graph.hpp"
#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace bmh {

class GraphStore {
public:
  struct Options {
    /// Byte budget over the directory's `.bmg` payload; 0 = unbounded.
    /// Enforced after spills by prune() (LRU by mtime).
    std::size_t max_bytes = 0;
    /// fsync each spilled file (and the directory entry) before the atomic
    /// rename publishes it: a spill that returned true survives a crash.
    bool fsync = false;
    /// Consecutive I/O errors (content rejections never count) that trip
    /// the circuit breaker; 0 disables the breaker.
    std::uint32_t breaker_threshold = 5;
    /// How long a tripped breaker keeps the store tier disabled before the
    /// next load/spill is allowed to probe the disk again.
    std::uint64_t breaker_cooldown_ms = 5000;
  };

  /// Point-in-time view of the store's counters. The counters themselves
  /// live in the store's obs::MetricDomain ("graph_store"), the single
  /// source of truth that Engine snapshots and the exporters also read;
  /// this struct is constructed on demand for callers of stats().
  struct Stats {
    std::uint64_t hits = 0;           ///< try_load served a graph
    std::uint64_t misses = 0;         ///< no file for the key (or key collision)
    std::uint64_t spills = 0;         ///< graphs written to the directory
    std::uint64_t spill_skips = 0;    ///< spill found the key already present
    std::uint64_t io_errors = 0;      ///< transient I/O failures (file kept)
    std::uint64_t content_errors = 0; ///< corrupt/mismatched files rejected
    std::uint64_t healed = 0;         ///< bad files unlinked for re-spill
    std::uint64_t breaker_trips = 0;  ///< circuit-breaker openings
    std::uint64_t breaker_skips = 0;  ///< loads/spills skipped while open
    std::uint64_t pruned = 0;         ///< files evicted by the byte budget

    /// Lumped error total, for callers that only care "did anything fail".
    [[nodiscard]] std::uint64_t errors_total() const noexcept {
      return io_errors + content_errors;
    }
  };

  /// Opens (creating if needed) the store directory. Throws
  /// std::runtime_error if the directory cannot be created.
  explicit GraphStore(std::string dir);  // default Options
  GraphStore(std::string dir, Options options);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// The file path `key` maps to (exposed for tests and tooling).
  [[nodiscard]] std::string path_for(std::string_view key) const;

  /// Loads the graph stored under `key` as a zero-copy mmap view, or
  /// nullptr when absent (a miss) or unreadable/corrupt/mismatched (an
  /// error — never thrown, never served). A hit touches the file's mtime
  /// (best-effort) so the prune budget evicts in least-recently-used
  /// order. A file with provably bad content (GraphFileError: corruption,
  /// truncation, width mismatch) is unlinked so the slot self-heals on the
  /// next spill instead of failing forever — which also means builds with
  /// different vid_t/eid_t ABIs must not share a directory; transient I/O
  /// failures leave the file alone. Thread-safe.
  [[nodiscard]] std::shared_ptr<const BipartiteGraph> try_load(std::string_view key);

  /// Persists `graph` under `key` unless the key's file is already present
  /// (write-once: stored content is immutable, so the existing file is
  /// kept). Returns true when a file for the key's slot is on disk
  /// afterwards — freshly written or already there — false on I/O failure
  /// (recorded, not thrown). When Options::max_bytes is set and the write
  /// pushed the directory over it, least-recently-used files are pruned
  /// back under budget (the freshly written file is the newest, so it
  /// survives unless it alone exceeds the budget). Caveat: presence is
  /// judged by filename, so in the astronomically unlikely event two
  /// distinct keys collide in the 64-bit hash, the second key is never
  /// persisted (its loads degrade to misses via the embedded-key check —
  /// wrong data is never served, the colliding key just stays
  /// rebuild-only). Thread-safe.
  bool spill(std::string_view key, const BipartiteGraph& graph);

  /// Evicts `.bmg` files, least-recently-modified first, until the
  /// directory's payload is <= max_bytes (0 empties it). Scans the
  /// directory, so other processes' spills are accounted too. Returns the
  /// number of bytes freed. Thread-safe; concurrent loads of a pruned file
  /// degrade to misses. Called automatically by spill() under
  /// Options::max_bytes; exposed for tooling and tests.
  std::size_t prune(std::size_t max_bytes);

  [[nodiscard]] Stats stats() const;

  /// The store's metric domain ("graph_store"): the live counters behind
  /// stats(), attachable to an obs::Registry (Engine does) so snapshots and
  /// exporters read the same instruments. Multi-writer — every counter is
  /// individually atomic, no PublishGuard.
  [[nodiscard]] obs::MetricDomain& metric_domain() noexcept { return domain_; }

  /// Human-readable reason for the most recent error ("" if none).
  [[nodiscard]] std::string last_error() const;

  /// True while the circuit breaker has the store tier disabled.
  [[nodiscard]] bool breaker_open() const noexcept;

private:
  void record_io_error(const std::string& message);
  void record_content_error(const std::string& message);
  void record_success() noexcept;
  /// Breaker gate for try_load/spill: true = skip the disk this call.
  [[nodiscard]] bool breaker_blocks() noexcept;

  std::string dir_;
  Options options_;
  obs::MetricDomain domain_{"graph_store"};
  obs::Counter& hits_ = domain_.counter("hits");
  obs::Counter& misses_ = domain_.counter("misses");
  obs::Counter& spills_ = domain_.counter("spills");
  obs::Counter& spill_skips_ = domain_.counter("spill_skips");
  obs::Counter& io_errors_ = domain_.counter("io_errors");
  obs::Counter& content_errors_ = domain_.counter("content_errors");
  obs::Counter& healed_ = domain_.counter("healed");
  obs::Counter& breaker_trips_ = domain_.counter("breaker_trips");
  obs::Counter& breaker_skips_ = domain_.counter("breaker_skips");
  obs::Gauge& breaker_gauge_ = domain_.gauge("breaker_open");
  obs::Counter& pruned_ = domain_.counter("pruned");
  /// Wall time of each load that hit (map, CRC, validation) and of each
  /// spill that wrote a file.
  obs::Histogram& load_latency_ = domain_.histogram("load");
  obs::Histogram& spill_latency_ = domain_.histogram("spill");
  /// Consecutive I/O errors since the last store success; trips the breaker
  /// at Options::breaker_threshold.
  std::atomic<std::uint32_t> consecutive_io_errors_{0};
  /// steady_clock deadline (ns since epoch) until which the breaker stays
  /// open; 0 = closed.
  std::atomic<std::int64_t> breaker_open_until_ns_{0};
  mutable Mutex mutex_;
  Mutex prune_mutex_;  ///< serializes directory scans (no data of its own)
  /// Payload bytes believed on disk; refreshed by prune()'s scan, advanced
  /// by spills. Only steers *when* the budget check rescans — eviction
  /// decisions always use real directory contents.
  std::atomic<std::size_t> approx_bytes_{0};
  std::string last_error_ BMH_GUARDED_BY(mutex_);
};

} // namespace bmh
