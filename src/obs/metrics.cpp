#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

namespace bmh::obs {

// ------------------------------------------------------------ HistogramData --

double HistogramData::quantile_ns(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kHistBuckets; ++b) {
    const std::uint64_t in_bucket = buckets[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) >= target) {
      const double lower = histogram_bucket_lower_ns(b);
      const double upper = histogram_bucket_upper_ns(b);
      // The overflow bucket has no width to interpolate over; report its
      // lower bound (a deliberate underestimate — it only matters for jobs
      // beyond the ~69 s ceiling).
      if (std::isinf(upper)) return lower;
      const double fraction =
          std::clamp((target - before) / static_cast<double>(in_bucket), 0.0, 1.0);
      return lower + (upper - lower) * fraction;
    }
  }
  return histogram_bucket_lower_ns(kHistBuckets - 1);  // unreachable
}

// ----------------------------------------------------------- DomainSnapshot --

std::uint64_t DomainSnapshot::counter_or(std::string_view metric,
                                         std::uint64_t fallback) const noexcept {
  for (const auto& [name, value] : counters)
    if (name == metric) return value;
  return fallback;
}

const HistogramData* DomainSnapshot::histogram(std::string_view metric) const noexcept {
  for (const auto& [name, data] : histograms)
    if (name == metric) return &data;
  return nullptr;
}

void DomainSnapshot::merge(const DomainSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    bool found = false;
    for (auto& [mine, total] : counters)
      if (mine == name) { total += value; found = true; break; }
    if (!found) counters.emplace_back(name, value);
  }
  for (const auto& [name, value] : other.gauges) {
    bool found = false;
    for (auto& [mine, total] : gauges)
      if (mine == name) { total += value; found = true; break; }
    if (!found) gauges.emplace_back(name, value);
  }
  for (const auto& [name, data] : other.histograms) {
    bool found = false;
    for (auto& [mine, total] : histograms)
      if (mine == name) { total.merge(data); found = true; break; }
    if (!found) histograms.emplace_back(name, data);
  }
}

// ----------------------------------------------------------------- Snapshot --

Snapshot Snapshot::aggregated() const {
  Snapshot out;
  for (const DomainSnapshot& d : domains) {
    DomainSnapshot* into = nullptr;
    for (DomainSnapshot& candidate : out.domains)
      if (candidate.name == d.name) { into = &candidate; break; }
    if (into == nullptr) {
      out.domains.push_back(d);
      out.domains.back().instance = -1;
    } else {
      into->merge(d);
    }
  }
  return out;
}

std::uint64_t Snapshot::counter_total(std::string_view domain_name,
                                      std::string_view metric) const noexcept {
  std::uint64_t total = 0;
  for (const DomainSnapshot& d : domains)
    if (d.name == domain_name) total += d.counter_or(metric);
  return total;
}

HistogramData Snapshot::histogram_merged(std::string_view domain_name,
                                         std::string_view metric) const {
  HistogramData total;
  for (const DomainSnapshot& d : domains)
    if (d.name == domain_name)
      if (const HistogramData* h = d.histogram(metric)) total.merge(*h);
  return total;
}

// ------------------------------------------------------------- MetricDomain --

// Callers hold create_mutex_ (BMH_REQUIRES): the guarded list must not be
// passed by reference before the lock is taken, or -Wthread-safety-reference
// flags the call site.
template <typename T>
T& MetricDomain::find_or_create(std::vector<Named<T>>& list, std::string_view metric) {
  for (Named<T>& named : list)
    if (named.name == metric) return *named.value;
  list.push_back(Named<T>{std::string(metric), std::make_unique<T>()});
  return *list.back().value;
}

Counter& MetricDomain::counter(std::string_view metric) {
  LockGuard lock(create_mutex_);
  return find_or_create(counters_, metric);
}

Gauge& MetricDomain::gauge(std::string_view metric) {
  LockGuard lock(create_mutex_);
  return find_or_create(gauges_, metric);
}

Histogram& MetricDomain::histogram(std::string_view metric) {
  LockGuard lock(create_mutex_);
  return find_or_create(histograms_, metric);
}

DomainSnapshot MetricDomain::snapshot() const {
  DomainSnapshot out;
  out.name = name_;
  out.instance = instance_;
  // The create mutex pins the instrument *lists*; values are read via the
  // seqlock below (the mutex is never taken by recording paths).
  LockGuard lock(create_mutex_);
  out.counters.resize(counters_.size());
  out.gauges.resize(gauges_.size());
  out.histograms.resize(histograms_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i)
    out.counters[i].first = counters_[i].name;
  for (std::size_t i = 0; i < gauges_.size(); ++i)
    out.gauges[i].first = gauges_[i].name;
  for (std::size_t i = 0; i < histograms_.size(); ++i)
    out.histograms[i].first = histograms_[i].name;

  for (int attempt = 0; attempt < (1 << 16); ++attempt) {
    // Seqlock read: acquire pairs with PublishGuard's release increment.
    const std::uint64_t before = seq_.load(std::memory_order_acquire);
    if (before & 1) {
      // A publish burst is open. A bare retry here can livelock: if the
      // writer was descheduled mid-burst, seq stays odd for its whole
      // timeslice while the spin burns all attempts in microseconds and
      // falls out with a zero-filled snapshot. Yield so the writer can
      // finish the burst; snapshots are rare, the extra syscall is free.
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < counters_.size(); ++i)
      out.counters[i].second = counters_[i].value->value();
    for (std::size_t i = 0; i < gauges_.size(); ++i)
      out.gauges[i].second = gauges_[i].value->value();
    for (std::size_t i = 0; i < histograms_.size(); ++i)
      out.histograms[i].second = histograms_[i].value->data();
    // acquire fence orders the value reads above before the seq re-check.
    std::atomic_thread_fence(std::memory_order_acquire);
    if (seq_.load(std::memory_order_relaxed) == before) break;
    std::this_thread::yield();  // raced with a burst; let the writer drain
  }
  return out;
}

// ----------------------------------------------------------------- Registry --

MetricDomain& Registry::create_domain(std::string name, int instance) {
  LockGuard lock(mutex_);
  owned_.push_back(std::make_unique<MetricDomain>(std::move(name), instance));
  return *owned_.back();
}

void Registry::attach(MetricDomain* domain) {
  if (domain == nullptr) return;
  LockGuard lock(mutex_);
  attached_.push_back(domain);
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  LockGuard lock(mutex_);
  out.domains.reserve(owned_.size() + attached_.size());
  for (const auto& domain : owned_) out.domains.push_back(domain->snapshot());
  for (MetricDomain* domain : attached_) out.domains.push_back(domain->snapshot());
  return out;
}

} // namespace bmh::obs
