#include "engine/graph_cache.hpp"

#include <algorithm>
#include <functional>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/graph_store.hpp"
#include "obs/trace.hpp"
#include "util/failpoint.hpp"
#include "util/thread_annotations.hpp"

namespace bmh {

namespace {

struct ShardEntry {
  std::string key;
  std::shared_ptr<const BipartiteGraph> graph;
  std::size_t bytes = 0;  ///< memory_bytes() when last charged
};

/// Hands evicted entries to the store's writer, which re-spills those whose
/// file went missing (no-op without a store). Called after the shard's lock
/// is released.
void hand_off_victims(GraphStore* store, std::vector<ShardEntry>& victims) {
  if (store == nullptr) return;
  for (ShardEntry& victim : victims)
    store->spill_async(std::move(victim.key), std::move(victim.graph));
}

} // namespace

struct GraphCache::Shard {
  using Lru = std::list<ShardEntry>;

  mutable Mutex mutex;
  Lru lru BMH_GUARDED_BY(mutex);  ///< front = most recently used
  /// Keys view the Entry::key strings owned by `lru` (list nodes are
  /// pointer-stable and entries immutable after insert), so lookup from the
  /// thread-local key buffer needs no temporary string.
  std::unordered_map<std::string_view, Lru::iterator> map BMH_GUARDED_BY(mutex);
  /// Drives this shard's own budget check; the cache-level `bytes` gauge
  /// (the observable value) is kept in step under the same lock.
  std::size_t bytes BMH_GUARDED_BY(mutex) = 0;

  /// Moves least recently used entries into `victims` until the shard fits
  /// `cache`'s per-shard budget, counting them on its instruments.
  void evict_over_budget(GraphCache& cache, std::vector<ShardEntry>& victims)
      BMH_REQUIRES(mutex) {
    while (bytes > cache.shard_budget_ && !lru.empty()) {
      ShardEntry& victim = lru.back();
      bytes -= victim.bytes;
      map.erase(std::string_view(victim.key));
      cache.entries_gauge_.add(-1);
      cache.bytes_gauge_.add(-static_cast<std::int64_t>(victim.bytes));
      victims.push_back(std::move(victim));
      lru.pop_back();
      cache.evictions_.inc();
    }
  }
};

namespace {

int clamp_shard_count(int shards) {
  shards = std::clamp(shards, 1, 256);
  int pow2 = 1;
  while (pow2 < shards) pow2 *= 2;
  return pow2;
}

} // namespace

GraphCache::GraphCache() : GraphCache(Options{}) {}

GraphCache::GraphCache(Options options) {
  const int shards = clamp_shard_count(options.shards);
  shard_mask_ = static_cast<std::size_t>(shards) - 1;
  shard_budget_ = std::max<std::size_t>(1, options.max_bytes / static_cast<std::size_t>(shards));
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) shards_.push_back(std::make_unique<Shard>());
  if (options.store != nullptr) {
    store_ = options.store;
  } else if (!options.store_dir.empty()) {
    owned_store_ = std::make_unique<GraphStore>(options.store_dir);
    store_ = owned_store_.get();
  }
}

GraphCache::~GraphCache() = default;

std::shared_ptr<const BipartiteGraph> GraphCache::get_or_build(const GraphSpec& spec,
                                                               std::uint64_t seed) {
  // Reused per thread so warm lookups render their key without allocating.
  thread_local std::string key;
  const std::uint64_t hash = canonical_graph_key(spec, seed, key);
  // Fibonacci-mix before masking: FNV's low bits correlate for short keys.
  Shard& shard = *shards_[(hash * 0x9e3779b97f4a7c15ull >> 32) & shard_mask_];

  std::shared_ptr<const BipartiteGraph> grown;  // a hit whose charge grew
  std::vector<ShardEntry> victims;
  {
    BMH_SPAN("cache_probe");
    LockGuard lock(shard.mutex);
    const auto it = shard.map.find(std::string_view(key));
    if (it != shard.map.end()) {
      hits_.inc();
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      ShardEntry& entry = *it->second;
      // Re-charge: the graph grows once a job publishes its remembered
      // scaling. Growth happens once per entry, so only then can a hit
      // evict (and, past the lock, hand off) anything.
      const std::size_t bytes = entry.graph->memory_bytes();
      if (bytes == entry.bytes) return entry.graph;
      grown = entry.graph;
      shard.bytes += bytes - entry.bytes;
      bytes_gauge_.add(static_cast<std::int64_t>(bytes) -
                       static_cast<std::int64_t>(entry.bytes));
      entry.bytes = bytes;
      shard.evict_over_budget(*this, victims);
    } else {
      misses_.inc();
    }
  }
  if (grown != nullptr) {
    hand_off_victims(store_, victims);
    return grown;
  }

  // Materialize outside the lock: a slow build (file read, big generator)
  // must not block lookups of other keys in this shard. `key` is safe
  // across these calls because neither path re-enters the cache. The
  // persistent tier is consulted first — an mmap view beats a rebuild —
  // and only a store miss (or a rejected corrupt file) pays for the build.
  std::shared_ptr<const BipartiteGraph> built;
  bool loaded_from_store = false;
  if (store_ != nullptr) {
    built = store_->try_load(key);
    loaded_from_store = built != nullptr;
  }
  if (!loaded_from_store) {
    BMH_SPAN("graph_build");
    const std::uint64_t start = obs::now_ns();
    built = std::make_shared<const BipartiteGraph>(build_graph(spec, seed));
    build_latency_.record(obs::now_ns() - start);
  }
  const std::size_t bytes = built->memory_bytes();

  // Failure domain: if inserting into the shard fails (injected here; a
  // real allocation failure would surface the same way), the job is served
  // its graph uncached — correctness never depends on residency, the next
  // lookup just rebuilds. The build is still handed to the store so the
  // persistent tier keeps it.
  try {
    BMH_FAILPOINT("cache.insert");
  } catch (const std::exception&) {
    insert_failures_.inc();
    if (store_ != nullptr && !loaded_from_store) store_->spill_async(key, built);
    return built;
  }

  // Evicted entries leave under the lock but are handed off after it: a
  // full store backlog makes the hand-off wait, which must not serialize
  // the shard.
  {
    LockGuard lock(shard.mutex);
    const auto raced = shard.map.find(std::string_view(key));
    if (raced != shard.map.end()) {
      // Another thread materialized the same key meanwhile; keep the
      // resident copy so later lookups share one graph (both copies are
      // identical by key) and count the wasted double-build.
      race_discards_.inc();
      shard.lru.splice(shard.lru.begin(), shard.lru, raced->second);
      return raced->second->graph;
    }
    if (bytes > shard_budget_) {
      uncacheable_.inc();
    } else {
      // Copy (not move) the key: stealing the thread-local buffer would
      // force the next lookup on this thread to regrow it — the warm path
      // must stay allocation-free from the first call after the cold build.
      shard.lru.push_front(ShardEntry{key, built, bytes});
      shard.map.emplace(std::string_view(shard.lru.front().key), shard.lru.begin());
      shard.bytes += bytes;
      entries_gauge_.add(1);
      bytes_gauge_.add(static_cast<std::int64_t>(bytes));
      // Never evicts the entry just added: its bytes alone fit the budget.
      shard.evict_over_budget(*this, victims);
    }
  }

  // Fresh builds go to the store's writer (uncacheable ones included — the
  // next process mmaps them instead of rebuilding).
  if (store_ != nullptr && !loaded_from_store) store_->spill_async(key, built);
  hand_off_victims(store_, victims);
  return built;
}

GraphCache::Stats GraphCache::stats() const {
  // A view over live instruments — no shard locks, no counter folding. The
  // store_* fields read the store's own metric domain (via its stats()
  // view), so the persistent tier's counters have exactly one home.
  Stats total;
  total.hits = hits_.value();
  total.misses = misses_.value();
  total.evictions = evictions_.value();
  total.uncacheable = uncacheable_.value();
  total.race_discards = race_discards_.value();
  total.insert_failures = insert_failures_.value();
  total.entries = static_cast<std::size_t>(std::max<std::int64_t>(0, entries_gauge_.value()));
  total.bytes = static_cast<std::size_t>(std::max<std::int64_t>(0, bytes_gauge_.value()));
  if (store_ != nullptr) {
    const GraphStore::Stats s = store_->stats();
    total.store_hits = s.hits;
    total.store_misses = s.misses;
    total.store_spills = s.spills;
    total.store_errors = s.errors_total();
    total.store_healed = s.healed;
  }
  return total;
}

} // namespace bmh
