#pragma once
/// \file graph_cache.hpp
/// \brief Sharded, content-addressed cache of immutable graphs.
///
/// The batch hot path was left with one dominant per-job cost after the
/// Workspace arenas removed algorithm scratch: `execute_job` re-materialized
/// its BipartiteGraph from the spec on every execution. Real batch traffic
/// (parameter sweeps, seed ensembles, quality suites) re-runs the same
/// instances constantly, so the fix is a cache keyed by *content address*:
/// the canonical form of (GraphSpec, effective instance seed) from
/// canonical_graph_key(), under which textually different but semantically
/// identical specs ("gen:er:n=4096" vs "gen:er:deg=4,n=4096") share one
/// entry, and sources whose instance ignores the seed (mesh, mtx files, ...)
/// share one entry across all seeds.
///
/// Values are `std::shared_ptr<const BipartiteGraph>`: algorithms treat
/// graphs as read-only shared state (the library's core concurrency
/// invariant), so one cached CSR can serve any number of workers while LRU
/// eviction retires it from the cache independently of in-flight jobs.
///
/// Concurrency: the key space is split across N shards (key-hash selected),
/// each with its own mutex + LRU list, so batch workers hitting different
/// instances never contend on a global lock. A warm hit performs zero heap
/// allocations: the key renders into a thread-local reused buffer, lookup is
/// by string_view, and the LRU bump is a splice. Misses build *outside* the
/// shard lock (a slow build must not block sibling lookups); if two threads
/// race on the same cold key, both build and the first insert wins — the
/// builds are deterministic in the key, so either copy is correct.
///
/// Capacity: a byte budget over the resident CSR+CSC bytes
/// (BipartiteGraph::memory_bytes), split evenly across shards; least
/// recently used entries are evicted per shard when it overflows. A graph
/// larger than a whole shard's budget is returned uncached. A resident
/// graph that has since published its remembered scaling is re-charged on
/// its next hit, which may evict other entries (or, past a shard's whole
/// budget, the graph itself — the caller still gets it).
///
/// Persistence: an optional second tier, a file-backed GraphStore sharing
/// the same canonical keys. Memory misses consult the store before
/// building (a hit is a zero-copy mmap view, no CSR rebuild); graphs built
/// cold are handed to the store's writer thread (GraphStore::spill_async),
/// and so are evicted entries, which re-spill if their file went missing —
/// so a restarted process (whose memory tier is necessarily empty) serves
/// repeated specs warm from its first job. A job never waits for a write
/// unless the store's backlog is full. All hand-offs happen outside the
/// shard locks.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/job.hpp"
#include "graph/bipartite_graph.hpp"
#include "obs/metrics.hpp"

namespace bmh {

class GraphStore;

class GraphCache {
public:
  struct Options {
    /// Total byte budget across all shards. Sized for a few hundred
    /// medium instances (a 1M-edge CSR+CSC is ~12 MB); see the README's
    /// "Graph cache" section for sizing guidance.
    std::size_t max_bytes = 256ull << 20;
    /// Lock shards; rounded up to a power of two and clamped to [1, 256].
    /// More shards = less contention, coarser per-shard LRU.
    int shards = 8;
    /// Non-empty: persistent tier directory; the cache creates and owns a
    /// GraphStore over it (see graph_store.hpp). Ignored when `store` is
    /// set.
    std::string store_dir;
    /// Caller-owned persistent tier shared across caches/processes;
    /// overrides store_dir. Must outlive the cache.
    GraphStore* store = nullptr;
  };

  /// Point-in-time view of the cache's counters. hits + misses counts every
  /// get_or_build; `uncacheable` misses additionally exceeded a shard
  /// budget and were returned without being inserted. `race_discards`
  /// counts cold-key races: a second thread materialized the same key
  /// concurrently and its copy was discarded in favour of the first insert
  /// (work wasted, result identical). The store_* fields are views of the
  /// persistent tier's own counters (all zero without one; see
  /// GraphStore::Stats). The counters themselves live in the cache's
  /// obs::MetricDomain ("graph_cache") — one source of truth shared with
  /// Registry snapshots and the exporters; there is no per-shard counter
  /// state to fold anymore.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t uncacheable = 0;
    std::uint64_t race_discards = 0;
    std::size_t entries = 0;  ///< graphs currently resident
    std::size_t bytes = 0;    ///< resident CSR+CSC bytes
    std::uint64_t store_hits = 0;
    std::uint64_t store_misses = 0;
    std::uint64_t store_spills = 0;
    std::uint64_t store_errors = 0;     ///< io + content errors, lumped
    std::uint64_t store_healed = 0;     ///< bad files self-heal-unlinked
    std::uint64_t insert_failures = 0;  ///< inserts degraded to uncached
  };

  GraphCache();  // default Options
  explicit GraphCache(Options options);
  ~GraphCache();
  GraphCache(const GraphCache&) = delete;
  GraphCache& operator=(const GraphCache&) = delete;

  /// Returns the graph build_graph(spec, seed) denotes, from cache when
  /// resident (allocation-free warm path), loaded from the persistent tier
  /// when configured and present (zero-copy mmap), building and inserting
  /// it otherwise. Thread-safe. Propagates build_graph's exceptions
  /// (failures are never cached; a corrupt store file falls back to
  /// building). The returned graph stays valid for as long as the caller
  /// holds the pointer, eviction notwithstanding.
  [[nodiscard]] std::shared_ptr<const BipartiteGraph> get_or_build(
      const GraphSpec& spec, std::uint64_t seed);

  [[nodiscard]] Stats stats() const;

  /// The cache's metric domain ("graph_cache"): the live counters and
  /// resident-size gauges behind stats(), attachable to an obs::Registry
  /// (Engine does). Multi-writer — individually atomic instruments, no
  /// PublishGuard.
  [[nodiscard]] obs::MetricDomain& metric_domain() noexcept { return domain_; }

  /// The persistent tier, or nullptr when none is configured.
  [[nodiscard]] GraphStore* store() const noexcept { return store_; }

private:
  struct Shard;
  std::size_t shard_budget_;
  std::size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<GraphStore> owned_store_;
  GraphStore* store_ = nullptr;
  obs::MetricDomain domain_{"graph_cache"};
  obs::Counter& hits_ = domain_.counter("hits");
  obs::Counter& misses_ = domain_.counter("misses");
  obs::Counter& evictions_ = domain_.counter("evictions");
  obs::Counter& uncacheable_ = domain_.counter("uncacheable");
  obs::Counter& race_discards_ = domain_.counter("race_discards");
  obs::Counter& insert_failures_ = domain_.counter("insert_failures");
  /// Wall time of build_graph on a miss the store did not serve.
  obs::Histogram& build_latency_ = domain_.histogram("build");
  obs::Gauge& entries_gauge_ = domain_.gauge("entries");
  obs::Gauge& bytes_gauge_ = domain_.gauge("bytes");
};

} // namespace bmh
