#pragma once
/// \file bench_common.hpp
/// \brief Shared plumbing for the serving-path benches and tests: the
/// optional global-allocator instrumentation that certifies the Workspace
/// hot paths are allocation-free, and the engine latency JSON.

#include <atomic>
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "bmh.hpp"

namespace bmh::bench {

/// JSON object (a `"latency": {...}` value for a BENCH_*.json record) with
/// the p50/p99 of the engine's per-worker latency histograms, merged across
/// workers — per-job wall time, queue wait, and graph acquisition. Percentiles
/// come from the obs layer's log-scale buckets (~12.5% worst-case width), so
/// they are estimates, not exact order statistics.
inline std::string latency_json(const Engine& engine) {
  const obs::Snapshot snap = engine.metrics();
  std::string out = "{";
  for (const char* metric : {"job", "queue_wait", "graph_acquire"}) {
    const obs::HistogramData h = snap.histogram_merged("worker", metric);
    if (out.size() > 1) out += ", ";
    out += '"';
    out += metric;
    out += "\": {\"samples\": ";
    out += std::to_string(h.count);
    out += ", \"p50_ms\": ";
    out += json_number(static_cast<double>(h.p50_ns()) / 1e6);
    out += ", \"p99_ms\": ";
    out += json_number(static_cast<double>(h.p99_ns()) / 1e6);
    out += '}';
  }
  out += '}';
  return out;
}

} // namespace bmh::bench

// ------------------------------------------------------------------------
// Global allocation counter (the proof behind "zero allocations per job").
//
// Define BMH_COUNT_ALLOCS *before* including this header — in exactly one
// translation unit per binary — to replace the global operator new/delete
// with counting versions. Every allocation is over-allocated by a small
// header recording its size, so `alloc_stats().live_bytes` tracks the net
// outstanding heap exactly, across all threads, for every allocation in the
// program (the library, gtest, the standard library). When the macro is not
// defined the counters exist but stay at zero and
// `kAllocCountingEnabled == false`.
// ------------------------------------------------------------------------

namespace bmh::bench {

struct AllocStats {
  std::uint64_t allocations = 0;  ///< operator-new calls since process start
  std::uint64_t live_bytes = 0;   ///< bytes allocated and not yet freed
};

// ThreadSanitizer interposes the global allocator to build the
// happens-before edges it needs for memory reuse; a malloc-based operator
// new/delete replacement bypasses that interposition, so TSan misreads the
// size-header handoff between allocating and freeing threads as a race
// even though the pointer transfer itself is fully synchronized. Under
// TSan the replacement compiles out: alloc-count assertions go vacuous
// (before == after == 0) while every other assertion still runs.
#if defined(__SANITIZE_THREAD__)
#define BMH_BENCH_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BMH_BENCH_TSAN 1
#endif
#endif

#if defined(BMH_COUNT_ALLOCS) && !defined(BMH_BENCH_TSAN)
inline constexpr bool kAllocCountingEnabled = true;
#else
inline constexpr bool kAllocCountingEnabled = false;
#endif

namespace alloc_detail {
inline std::atomic<std::uint64_t> g_allocations{0};
inline std::atomic<std::uint64_t> g_live_bytes{0};
} // namespace alloc_detail

/// Snapshot of the global counters (zeros when counting is disabled).
inline AllocStats alloc_stats() noexcept {
  return {alloc_detail::g_allocations.load(std::memory_order_relaxed),
          alloc_detail::g_live_bytes.load(std::memory_order_relaxed)};
}

#if defined(BMH_COUNT_ALLOCS) && !defined(BMH_BENCH_TSAN)
namespace alloc_detail {

struct Header {
  void* raw;
  std::size_t bytes;
};

inline void* counted_alloc(std::size_t n, std::size_t align) noexcept {
  const std::size_t head = sizeof(Header);
  const std::size_t pad = align > alignof(std::max_align_t)
                              ? align
                              : alignof(std::max_align_t);
  auto* raw = static_cast<unsigned char*>(std::malloc(n + head + 2 * pad));
  if (raw == nullptr) return nullptr;
  unsigned char* user = raw + head;
  user += (pad - reinterpret_cast<std::uintptr_t>(user) % pad) % pad;
  const Header header{raw, n};
  std::memcpy(user - head, &header, head);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(n, std::memory_order_relaxed);
  return user;
}

inline void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  Header header;
  std::memcpy(&header, static_cast<unsigned char*>(p) - sizeof(Header), sizeof(Header));
  g_live_bytes.fetch_sub(header.bytes, std::memory_order_relaxed);
  std::free(header.raw);
}

} // namespace alloc_detail
#endif // BMH_COUNT_ALLOCS

} // namespace bmh::bench

#if defined(BMH_COUNT_ALLOCS) && !defined(BMH_BENCH_TSAN)

void* operator new(std::size_t n) {
  if (void* p = bmh::bench::alloc_detail::counted_alloc(n, alignof(std::max_align_t)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  if (void* p =
          bmh::bench::alloc_detail::counted_alloc(n, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return bmh::bench::alloc_detail::counted_alloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return bmh::bench::alloc_detail::counted_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t align, const std::nothrow_t&) noexcept {
  return bmh::bench::alloc_detail::counted_alloc(n, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t n, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return bmh::bench::alloc_detail::counted_alloc(n, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { bmh::bench::alloc_detail::counted_free(p); }
void operator delete[](void* p) noexcept { bmh::bench::alloc_detail::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  bmh::bench::alloc_detail::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  bmh::bench::alloc_detail::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  bmh::bench::alloc_detail::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  bmh::bench::alloc_detail::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  bmh::bench::alloc_detail::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  bmh::bench::alloc_detail::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  bmh::bench::alloc_detail::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  bmh::bench::alloc_detail::counted_free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  bmh::bench::alloc_detail::counted_free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  bmh::bench::alloc_detail::counted_free(p);
}

#endif // BMH_COUNT_ALLOCS
