#include "engine/graph_store.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "graph/serialize.hpp"
#include "obs/trace.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"

namespace bmh {

namespace {

namespace fs = std::filesystem;

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, value >>= 4) out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
  return out;
}

bool is_store_file(const fs::directory_entry& entry) {
  // error_code form: a file vanishing mid-scan (concurrent pruner, manual
  // cleanup) must read as "not a store file", not throw out of the scan.
  std::error_code ec;
  return entry.is_regular_file(ec) && entry.path().extension() == ".bmg";
}

/// A save_graph temporary ("<key-hash>.bmg.tmp.<pid>.<seq>") abandoned by a
/// process that died mid-spill — the crash scenario Options::fsync exists
/// for. Only ones older than this grace period count as abandoned: a live
/// spiller's temporary exists for milliseconds, so anything this old is
/// orphaned, while a shared directory's in-flight writers are never raced.
constexpr std::chrono::minutes kStaleTemporaryAge{15};

bool is_stale_temporary(const fs::directory_entry& entry) {
  std::error_code ec;
  if (!entry.is_regular_file(ec)) return false;
  if (entry.path().filename().string().find(".bmg.tmp.") == std::string::npos)
    return false;
  const auto mtime = entry.last_write_time(ec);
  if (ec) return false;
  return fs::file_time_type::clock::now() - mtime > kStaleTemporaryAge;
}

} // namespace

GraphStore::GraphStore(std::string dir) : GraphStore(std::move(dir), Options{}) {}

GraphStore::GraphStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_))
    throw std::runtime_error("graph store: cannot create directory '" + dir_ +
                             "': " + ec.message());
  // One opening scan: seed the budget estimate with what previous
  // processes left behind (so an over-budget directory is pruned on the
  // first spill, not after another budget's worth of growth) and sweep
  // temporaries orphaned by crashed spillers — invisible to the `.bmg`
  // budget, they would otherwise leak disk forever.
  std::size_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (is_store_file(entry)) {
      std::error_code size_ec;
      const auto size = entry.file_size(size_ec);
      if (!size_ec) bytes += static_cast<std::size_t>(size);
    } else if (is_stale_temporary(entry)) {
      std::error_code remove_ec;
      fs::remove(entry.path(), remove_ec);
    }
  }
  approx_bytes_.store(bytes, std::memory_order_relaxed);
}

std::string GraphStore::path_for(std::string_view key) const {
  return dir_ + "/" + hex64(fnv1a64(key)) + ".bmg";
}

std::shared_ptr<const BipartiteGraph> GraphStore::try_load(std::string_view key) {
  BMH_SPAN("store_load");
  if (breaker_blocks()) return nullptr;
  const std::string path = path_for(key);
  // Identity of the file we are about to map, for the self-heal check
  // below; a missing file is the common cold-store case — a miss, never an
  // error (the directory may legitimately be pruned while we run).
  struct stat before{};
  if (::stat(path.c_str(), &before) != 0) {
    misses_.inc();
    return nullptr;
  }
  try {
    // After the stat so a cold store stays a plain miss: an injected error
    // here models a file that exists but cannot be read, the transient-I/O
    // class that feeds the circuit breaker.
    BMH_FAILPOINT("store.load");
    const std::uint64_t start = obs::now_ns();
    std::string stored_key;
    auto graph =
        std::make_shared<const BipartiteGraph>(load_graph_mapped(path, &stored_key));
    if (stored_key != key) {
      // Hash collision between distinct keys: the file is fine, it just
      // isn't ours. Degrade to a miss; the builder path takes over.
      misses_.inc();
      return nullptr;
    }
    // Mark the file used so the prune budget evicts genuinely idle keys:
    // recency is mtime (atime is unreliable under noatime mounts).
    // Best-effort — a failure (read-only directory, concurrent prune)
    // costs nothing but eviction precision.
    (void)::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
    load_latency_.record(obs::now_ns() - start);
    hits_.inc();
    record_success();
    return graph;
  } catch (const GraphFileError& e) {
    record_content_error(e.what());
    // Self-heal: a provably-bad file (corruption, truncation, incompatible
    // integer widths) would otherwise occupy the key's slot forever —
    // spill() is write-once, so every future run would pay the failed load
    // plus a rebuild. Unlink it so the next spill rewrites the slot whole.
    // (Consequence: builds with different vid_t/eid_t ABIs must not share
    // a directory, or they will churn each other's files.) Only if the
    // path still names the inode we mapped, though: a concurrent healer
    // may already have replaced the bad file with a fresh good spill (our
    // mapping pins the old inode, not the path), and deleting that
    // replacement would throw its work away.
    struct stat now{};
    if (::stat(path.c_str(), &now) == 0 && now.st_dev == before.st_dev &&
        now.st_ino == before.st_ino) {
      std::error_code remove_ec;
      if (fs::remove(path, remove_ec)) healed_.inc();
    }
    return nullptr;
  } catch (const std::exception& e) {
    // The file vanished between stat and open (pruning, a concurrent
    // self-heal): a miss, like the stat-miss above. Anything else is
    // transient I/O trouble (fd exhaustion, permissions) — the content may
    // be perfectly good, so record it but never unlink on this path.
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      misses_.inc();
      return nullptr;
    }
    record_io_error(e.what());
    return nullptr;
  }
}

bool GraphStore::spill(std::string_view key, const BipartiteGraph& graph) {
  BMH_SPAN("store_spill");
  if (breaker_blocks()) return false;
  const std::string path = path_for(key);
  std::error_code ec;
  if (fs::exists(path, ec)) {
    // Write-once: stored content is immutable under its key, so the first
    // spill wins and repeats are free. (A colliding different key keeps the
    // incumbent too — its loads degrade to misses, never to wrong data.)
    spill_skips_.inc();
    return true;
  }
  try {
    BMH_FAILPOINT("store.spill");
    const std::uint64_t start = obs::now_ns();
    save_graph(graph, path, key, options_.fsync);
    spill_latency_.record(obs::now_ns() - start);
    spills_.inc();
    record_success();
    if (options_.max_bytes > 0) {
      const std::size_t written = serialized_graph_bytes(graph, key);
      const std::size_t total =
          approx_bytes_.fetch_add(written, std::memory_order_relaxed) + written;
      if (total > options_.max_bytes) (void)prune(options_.max_bytes);
    }
    return true;
  } catch (const std::exception& e) {
    record_io_error(e.what());
    return false;
  }
}

std::size_t GraphStore::prune(std::size_t max_bytes) {
  // One pruner at a time: concurrent spillers would otherwise each scan and
  // race to delete the same victims. Spills proceed meanwhile — the scan
  // below sees whatever is on disk when it runs; a file spilled after the
  // scan is caught by that spill's own budget check.
  LockGuard prune_lock(prune_mutex_);
  // Budget-triggered prunes run inside spill()'s try block, so an injected
  // throw here lands on the spill's transient-I/O path.
  BMH_FAILPOINT("store.prune");

  struct File {
    fs::path path;
    fs::file_time_type mtime;
    std::size_t bytes = 0;
  };
  std::vector<File> files;
  std::size_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!is_store_file(entry)) {
      // Piggy-back the orphaned-temporary sweep on every prune scan: a
      // crashed spiller's `.tmp.` file is outside the `.bmg` budget, so
      // this is the only thing that ever reclaims it in a long-lived
      // process.
      if (is_stale_temporary(entry)) {
        std::error_code remove_ec;
        fs::remove(entry.path(), remove_ec);
      }
      continue;
    }
    // A file vanishing between iteration and stat (concurrent self-heal or
    // pruner) reports error sentinels here — (uintmax_t)-1 bytes, min()
    // mtime — which would corrupt the totals and sort the phantom to the
    // eviction front; skip it instead.
    File f;
    f.path = entry.path();
    std::error_code mtime_ec, size_ec;
    f.mtime = entry.last_write_time(mtime_ec);
    f.bytes = static_cast<std::size_t>(entry.file_size(size_ec));
    if (mtime_ec || size_ec) continue;
    total += f.bytes;
    files.push_back(std::move(f));
  }

  std::size_t freed = 0;
  std::uint64_t removed = 0;
  if (total > max_bytes) {
    // Oldest mtime first = least recently spilled *or loaded* (try_load
    // touches on hit), the store's LRU order.
    std::sort(files.begin(), files.end(),
              [](const File& a, const File& b) { return a.mtime < b.mtime; });
    for (const File& f : files) {
      if (total - freed <= max_bytes) break;
      std::error_code remove_ec;
      if (fs::remove(f.path, remove_ec)) {
        freed += f.bytes;
        ++removed;
      }
    }
  }
  approx_bytes_.store(total - freed, std::memory_order_relaxed);
  if (removed > 0) pruned_.inc(removed);
  return freed;
}

GraphStore::Stats GraphStore::stats() const {
  // A view over the metric domain's live counters — the same instruments a
  // Registry snapshot reads, so the two can never disagree on the totals.
  Stats out;
  out.hits = hits_.value();
  out.misses = misses_.value();
  out.spills = spills_.value();
  out.spill_skips = spill_skips_.value();
  out.io_errors = io_errors_.value();
  out.content_errors = content_errors_.value();
  out.healed = healed_.value();
  out.breaker_trips = breaker_trips_.value();
  out.breaker_skips = breaker_skips_.value();
  out.pruned = pruned_.value();
  return out;
}

std::string GraphStore::last_error() const {
  LockGuard lock(mutex_);
  return last_error_;
}

bool GraphStore::breaker_open() const noexcept {
  const std::int64_t until = breaker_open_until_ns_.load(std::memory_order_relaxed);
  return until != 0 &&
         std::chrono::steady_clock::now().time_since_epoch() <
             std::chrono::nanoseconds(until);
}

bool GraphStore::breaker_blocks() noexcept {
  const std::int64_t until = breaker_open_until_ns_.load(std::memory_order_relaxed);
  if (until == 0) return false;
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  if (now_ns < until) {
    breaker_skips_.inc();
    return true;
  }
  // Cooldown over: half-open. One CAS winner closes the breaker and resets
  // the error streak; the next disk error re-trips it immediately at
  // threshold 1's worth of margin (the streak restarts from zero).
  std::int64_t expected = until;
  if (breaker_open_until_ns_.compare_exchange_strong(expected, 0,
                                                     std::memory_order_relaxed)) {
    consecutive_io_errors_.store(0, std::memory_order_relaxed);
    breaker_gauge_.set(0);
  }
  return false;
}

void GraphStore::record_io_error(const std::string& message) {
  io_errors_.inc();
  {
    LockGuard lock(mutex_);
    last_error_ = message;
  }
  if (options_.breaker_threshold == 0) return;
  const std::uint32_t streak =
      consecutive_io_errors_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (streak < options_.breaker_threshold) return;
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  const std::int64_t until =
      now_ns + static_cast<std::int64_t>(options_.breaker_cooldown_ms) * 1'000'000;
  // Only the trip that transitions closed->open logs and counts; racing
  // errors while already open just extend nothing.
  std::int64_t expected = 0;
  if (breaker_open_until_ns_.compare_exchange_strong(expected, until,
                                                     std::memory_order_relaxed)) {
    breaker_trips_.inc();
    breaker_gauge_.set(1);
    std::fprintf(stderr,
                 "graph store: circuit breaker open after %u consecutive I/O "
                 "errors (cooldown %llums, dir %s): %s\n",
                 streak,
                 static_cast<unsigned long long>(options_.breaker_cooldown_ms),
                 dir_.c_str(), message.c_str());
  }
}

void GraphStore::record_content_error(const std::string& message) {
  // Content rejection is self-healing (the bad file is unlinked, the next
  // spill rewrites the slot) — it never feeds the breaker streak.
  content_errors_.inc();
  LockGuard lock(mutex_);
  last_error_ = message;
}

void GraphStore::record_success() noexcept {
  consecutive_io_errors_.store(0, std::memory_order_relaxed);
}

} // namespace bmh
