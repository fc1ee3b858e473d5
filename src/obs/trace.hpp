#pragma once
/// \file trace.hpp
/// \brief Lightweight trace spans over bounded per-worker ring-buffer
/// journals.
///
/// A span is one timed phase of a job — `BMH_SPAN("match")` at the top of a
/// scope records {name, start, duration, nesting depth} into the journal
/// bound to the current thread when the scope exits. The engine binds one
/// `TraceJournal` per worker thread, so the pipeline stages
/// (scale/match/augment/analyze), graph acquisition, cache probes and store
/// I/O all journal themselves with zero configuration; code running outside
/// a bound thread (library users calling kernels directly) pays one
/// thread-local load and records nothing.
///
/// Guarantees on the recording path:
///  * no allocation — the ring is sized at construction and events are
///    written in place;
///  * no locks — one atomic fetch_add claims the slot (journals are
///    single-writer by convention, but the claim is safe regardless);
///  * bounded memory — the ring wraps, overwriting the oldest events; the
///    journal counts every event ever recorded so readers can tell how many
///    wrapped away.
///
/// Readers (`events()`) run concurrently with writers: each slot carries a
/// generation tag written last (release) and checked before/after the field
/// reads, so a slot being overwritten mid-read is skipped instead of
/// returned torn.
///
/// Span names must be string literals (or otherwise outlive the journal):
/// events store the pointer, not a copy — that is what keeps recording
/// allocation-free.

#include <atomic>
#include <cstdint>
#include <vector>

namespace bmh::obs {

/// Monotonic nanosecond clock for spans and latency histograms, measured
/// from process start (small, diffable values).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// One completed span, as read back from a journal.
struct TraceEvent {
  const char* name = nullptr;  ///< the literal passed to BMH_SPAN
  std::uint64_t start_ns = 0;  ///< now_ns() at scope entry
  std::uint64_t dur_ns = 0;
  std::uint32_t depth = 0;     ///< nesting level (1 = outermost span)
  std::uint64_t id = 0;        ///< 1-based recording order, gapless per journal
};

/// Bounded ring buffer of completed spans; one per worker thread.
class TraceJournal {
public:
  /// Capacity is rounded up to a power of two (default 4096 events).
  explicit TraceJournal(std::size_t capacity = 4096);
  TraceJournal(const TraceJournal&) = delete;
  TraceJournal& operator=(const TraceJournal&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Total events ever recorded (those beyond capacity() have wrapped away).
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    // acquire pairs with record()'s release publish of the counted event.
    return head_.load(std::memory_order_acquire);
  }

  /// Appends one event. Lock-free, allocation-free; `name` must outlive the
  /// journal (use string literals).
  void record(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
              std::uint32_t depth) noexcept;

  /// The resident events, oldest first. Slots being overwritten while this
  /// runs are skipped, never returned torn.
  [[nodiscard]] std::vector<TraceEvent> events() const;

private:
  struct Slot {
    std::atomic<std::uint64_t> id{0};  ///< 0 = empty; generation tag, written last
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> dur_ns{0};
    std::atomic<std::uint32_t> depth{0};
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

/// Binds `journal` as the calling thread's span sink (nullptr unbinds).
void bind_thread_journal(TraceJournal* journal) noexcept;

/// Records a phase measured externally (queue wait, which has no scope on
/// the recording thread) into the bound journal at the current depth + 1.
void record_phase(const char* name, std::uint64_t start_ns,
                  std::uint64_t dur_ns) noexcept;

/// RAII span: times its enclosing scope and journals it on exit. Prefer the
/// BMH_SPAN macro.
class ScopedSpan {
public:
  explicit ScopedSpan(const char* name) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  TraceJournal* journal_;
  const char* name_;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
};

#define BMH_OBS_CONCAT_INNER(a, b) a##b
#define BMH_OBS_CONCAT(a, b) BMH_OBS_CONCAT_INNER(a, b)

/// Journals the enclosing scope as a span named `name` (a string literal).
#define BMH_SPAN(name) \
  ::bmh::obs::ScopedSpan BMH_OBS_CONCAT(bmh_obs_span_, __LINE__)(name)

} // namespace bmh::obs
