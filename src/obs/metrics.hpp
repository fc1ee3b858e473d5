#pragma once
/// \file metrics.hpp
/// \brief Lock-free metrics for the serving stack: counters, gauges and
/// fixed-bucket log-scale latency histograms, grouped into per-owner
/// MetricDomains and aggregated on snapshot.
///
/// Before this subsystem the engine's telemetry was a patchwork: the graph
/// cache folded per-shard counters under its shard locks, the graph store
/// kept a mutex-guarded Stats struct that the cache copied field by field,
/// and `Engine::stats()` assembled its view from all of them at different
/// instants. This file is the one layer underneath: every subsystem owns a
/// `MetricDomain` holding its instruments, the engine's `obs::Registry`
/// knows them all, and one `snapshot()` walk produces a consistent,
/// machine-exportable view (export.hpp renders it as Prometheus text
/// exposition or JSON lines).
///
/// Design rules:
///  * **Hot path = atomics only.** Instruments are found-or-created by name
///    once, at setup (that path allocates and takes a mutex); recording is
///    a relaxed atomic add on a pre-resolved pointer — no locks, no
///    allocation, safe from any thread.
///  * **Histograms are fixed log-scale buckets.** Values are nanoseconds;
///    buckets split each power of two into 8 linear sub-buckets from 128 ns
///    to ~69 s (234 buckets, ~12.5% worst-case relative width), so p50/p90/
///    p99 estimates from `HistogramData::quantile_ns` are within one
///    sub-bucket of the truth. No dynamic resizing, ever.
///  * **Per-domain consistency via a seqlock.** A single-writer domain (an
///    engine worker) brackets each job's metric updates in a
///    `PublishGuard`; `snapshot()` retries while the sequence is odd or
///    moved, so a snapshot never observes half a job (jobs_run incremented
///    but its latency not yet recorded). Multi-writer domains (the graph
///    cache's shards, the store) skip the guard: their counters are
///    individually atomic and monotone, and the snapshot is a point-in-time
///    read of each. The cross-worker model is therefore: atomic per worker
///    domain, monotone-but-skewed (by at most the in-flight jobs) across
///    domains.
///  * **Always on.** There is no compile-time switch: a build with the
///    histograms and trace spans compiled out measured no faster on 20k
///    tiny jobs, so one configuration is all there is to test.

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.hpp"

namespace bmh::obs {

// ---------------------------------------------------------------- buckets --

/// Histogram geometry, shared by the live instrument and its snapshots:
/// bucket 0 is the underflow (< 2^kMinShift ns), the last bucket the
/// overflow (>= 2^kMaxShift ns), and between them every power of two is
/// split into kSub linear sub-buckets.
inline constexpr int kHistMinShift = 7;   ///< 128 ns
inline constexpr int kHistMaxShift = 36;  ///< ~68.7 s
inline constexpr int kHistSubShift = 3;
inline constexpr int kHistSub = 1 << kHistSubShift;  ///< 8 sub-buckets/octave
inline constexpr int kHistBuckets = 2 + (kHistMaxShift - kHistMinShift) * kHistSub;

/// The bucket `ns` lands in.
[[nodiscard]] constexpr int histogram_bucket_index(std::uint64_t ns) noexcept {
  if (ns < (std::uint64_t{1} << kHistMinShift)) return 0;
  const int octave = 63 - std::countl_zero(ns);
  if (octave >= kHistMaxShift) return kHistBuckets - 1;
  const int sub = static_cast<int>((ns - (std::uint64_t{1} << octave)) >>
                                   (octave - kHistSubShift));
  return 1 + (octave - kHistMinShift) * kHistSub + sub;
}

/// Exclusive upper bound of a bucket in nanoseconds (+inf for the overflow
/// bucket).
[[nodiscard]] constexpr double histogram_bucket_upper_ns(int index) noexcept {
  if (index <= 0) return static_cast<double>(std::uint64_t{1} << kHistMinShift);
  if (index >= kHistBuckets - 1) return std::numeric_limits<double>::infinity();
  const int k = index - 1;
  const int octave = kHistMinShift + k / kHistSub;
  const int sub = k % kHistSub;
  return static_cast<double>(
      (std::uint64_t{1} << octave) +
      (static_cast<std::uint64_t>(sub) + 1) * (std::uint64_t{1} << (octave - kHistSubShift)));
}

/// Inclusive lower bound of a bucket in nanoseconds (0 for the underflow
/// bucket).
[[nodiscard]] constexpr double histogram_bucket_lower_ns(int index) noexcept {
  return index <= 0 ? 0.0 : histogram_bucket_upper_ns(index - 1);
}

// ------------------------------------------------------------- instruments --

/// Monotone event count. Increments are relaxed atomics: safe from any
/// thread, allocation-free, ordered only by the owning domain's seqlock.
class Counter {
public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (resident bytes, entries, window occupancy).
class Gauge {
public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

private:
  std::atomic<std::int64_t> value_{0};
};

/// Read-side copy of a histogram: plain integers, mergeable, with quantile
/// estimation. This is what snapshots and exporters carry.
struct HistogramData {
  std::array<std::uint64_t, static_cast<std::size_t>(kHistBuckets)> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;

  void merge(const HistogramData& other) noexcept {
    for (std::size_t b = 0; b < buckets.size(); ++b) buckets[b] += other.buckets[b];
    count += other.count;
    sum_ns += other.sum_ns;
  }

  /// Estimated q-quantile in nanoseconds (linear interpolation inside the
  /// containing bucket; the overflow bucket clamps to its lower bound).
  /// 0 when the histogram is empty.
  [[nodiscard]] double quantile_ns(double q) const noexcept;

  [[nodiscard]] double p50_ns() const noexcept { return quantile_ns(0.50); }
  [[nodiscard]] double p90_ns() const noexcept { return quantile_ns(0.90); }
  [[nodiscard]] double p99_ns() const noexcept { return quantile_ns(0.99); }
  [[nodiscard]] double mean_ns() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum_ns) / static_cast<double>(count);
  }
};

/// Fixed-bucket log-scale latency histogram (values in nanoseconds).
/// Recording is three relaxed atomic adds — lock-free, allocation-free.
class Histogram {
public:
  void record(std::uint64_t ns) noexcept {
    buckets_[static_cast<std::size_t>(histogram_bucket_index(ns))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  /// Convenience for stage timings kept in seconds.
  void record_seconds(double seconds) noexcept {
    if (seconds < 0) seconds = 0;
    record(static_cast<std::uint64_t>(seconds * 1e9));
  }

  [[nodiscard]] HistogramData data() const noexcept {
    HistogramData out;
    for (std::size_t b = 0; b < out.buckets.size(); ++b)
      out.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    out.count = count_.load(std::memory_order_relaxed);
    out.sum_ns = sum_ns_.load(std::memory_order_relaxed);
    return out;
  }

private:
  std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(kHistBuckets)>
      buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

// --------------------------------------------------------------- snapshots --

/// Point-in-time copy of one domain's instruments, by name.
struct DomainSnapshot {
  std::string name;
  int instance = -1;  ///< -1: singleton domain (cache, store); >= 0: worker id
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramData>> histograms;

  [[nodiscard]] std::uint64_t counter_or(std::string_view metric,
                                         std::uint64_t fallback = 0) const noexcept;
  /// nullptr when the domain has no histogram of that name.
  [[nodiscard]] const HistogramData* histogram(std::string_view metric) const noexcept;

  /// Sums `other` into this (counters and histogram buckets add, gauges
  /// add — aggregated gauges are totals across instances).
  void merge(const DomainSnapshot& other);
};

/// A consistent view over a set of domains (see the header comment for the
/// consistency model).
struct Snapshot {
  std::vector<DomainSnapshot> domains;

  /// Merges same-named domains (the per-worker "worker" instances become
  /// one), preserving first-seen order; `instance` becomes -1.
  [[nodiscard]] Snapshot aggregated() const;

  /// Sum of `metric` over every domain named `domain_name`.
  [[nodiscard]] std::uint64_t counter_total(std::string_view domain_name,
                                            std::string_view metric) const noexcept;

  /// Bucket-wise merge of `metric` over every domain named `domain_name`
  /// (empty HistogramData when absent).
  [[nodiscard]] HistogramData histogram_merged(std::string_view domain_name,
                                               std::string_view metric) const;
};

// ------------------------------------------------------------------ domain --

/// A named bag of instruments with one owner semantic:
///  * single-writer domains bracket updates in a PublishGuard, making
///    `snapshot()` atomic with respect to those update bursts;
///  * multi-writer domains never touch the guard — every instrument is
///    individually atomic and `snapshot()` is one relaxed pass.
///
/// Instrument creation (`counter`/`gauge`/`histogram`) is find-or-create by
/// name under a mutex — do it at setup and keep the returned references
/// (they are stable for the domain's lifetime); never on a hot path.
class MetricDomain {
public:
  explicit MetricDomain(std::string name, int instance = -1)
      : name_(std::move(name)), instance_(instance) {}
  MetricDomain(const MetricDomain&) = delete;
  MetricDomain& operator=(const MetricDomain&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] int instance() const noexcept { return instance_; }

  [[nodiscard]] Counter& counter(std::string_view metric);
  [[nodiscard]] Gauge& gauge(std::string_view metric);
  [[nodiscard]] Histogram& histogram(std::string_view metric);

  /// Seqlock write bracket for single-writer domains. Keep the critical
  /// section to the update burst itself (a dozen atomic adds): concurrent
  /// snapshots spin while it is open.
  void publish_begin() noexcept {
    seq_.fetch_add(1, std::memory_order_relaxed);
    // release fence: snapshot readers must not see burst writes with an
    // even (pre-increment) seq — pairs with their acquire load.
    std::atomic_thread_fence(std::memory_order_release);
  }
  void publish_end() noexcept {
    // release fence orders the burst's writes before the closing
    // increment; readers re-checking seq acquire-pair with it.
    std::atomic_thread_fence(std::memory_order_release);
    seq_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Reads every instrument; retries while a PublishGuard is open or closed
  /// mid-read, so the result never contains half an update burst. Bounded
  /// retries (a torn read after ~64k attempts is accepted rather than
  /// livelocking — unreachable in practice since bursts are microseconds).
  [[nodiscard]] DomainSnapshot snapshot() const;

private:
  template <typename T>
  struct Named {
    std::string name;
    std::unique_ptr<T> value;
  };

  template <typename T>
  T& find_or_create(std::vector<Named<T>>& list, std::string_view metric)
      BMH_REQUIRES(create_mutex_);

  std::string name_;
  int instance_ = -1;
  /// Seqlock sequence word — deliberately NOT a BMH_GUARDED_BY member: the
  /// protocol is lock-free by design. The single writer brackets its update
  /// burst with publish_begin/publish_end (odd seq = burst open, release
  /// fences order the instrument writes); snapshot() re-reads seq around its
  /// copy and retries on change. The create_mutex_ below guards only the
  /// instrument *lists*; the atomic instrument values and this word are
  /// synchronized by the seqlock alone.
  std::atomic<std::uint64_t> seq_{0};
  mutable Mutex create_mutex_;  ///< guards the lists, never the values
  std::vector<Named<Counter>> counters_ BMH_GUARDED_BY(create_mutex_);
  std::vector<Named<Gauge>> gauges_ BMH_GUARDED_BY(create_mutex_);
  std::vector<Named<Histogram>> histograms_ BMH_GUARDED_BY(create_mutex_);
};

/// RAII PublishGuard: brackets one update burst of a single-writer domain.
class PublishGuard {
public:
  explicit PublishGuard(MetricDomain& domain) noexcept : domain_(domain) {
    domain_.publish_begin();
  }
  ~PublishGuard() { domain_.publish_end(); }
  PublishGuard(const PublishGuard&) = delete;
  PublishGuard& operator=(const PublishGuard&) = delete;

private:
  MetricDomain& domain_;
};

// ---------------------------------------------------------------- registry --

/// The set of domains one snapshot covers. Owns the domains it creates
/// (per-worker domains) and can additionally attach externally-owned ones
/// (the cache's and store's — they outlive the registry by contract).
class Registry {
public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Creates and owns a new domain. The reference is stable for the
  /// registry's lifetime.
  MetricDomain& create_domain(std::string name, int instance = -1);

  /// Attaches a caller-owned domain (must outlive the registry).
  void attach(MetricDomain* domain);

  /// Snapshots every domain, owned and attached, each with its own
  /// per-domain consistency (see MetricDomain::snapshot).
  [[nodiscard]] Snapshot snapshot() const;

private:
  mutable Mutex mutex_;  ///< guards the lists (setup-time only)
  std::vector<std::unique_ptr<MetricDomain>> owned_ BMH_GUARDED_BY(mutex_);
  std::vector<MetricDomain*> attached_ BMH_GUARDED_BY(mutex_);
};

} // namespace bmh::obs
