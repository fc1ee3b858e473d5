#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>

namespace bmh::obs {

namespace {

/// Non-local initialization on purpose: the first now_ns() call must not
/// pay a function-local static guard on the hot path (and must not
/// allocate, for the zero-allocation certifications).
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

} // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_process_start)
          .count());
}

TraceJournal::TraceJournal(std::size_t capacity) {
  std::size_t rounded = 1;
  while (rounded < capacity) rounded <<= 1;
  rounded = std::max<std::size_t>(rounded, 2);
  slots_ = std::vector<Slot>(rounded);
  mask_ = rounded - 1;
}

void TraceJournal::record(const char* name, std::uint64_t start_ns,
                          std::uint64_t dur_ns, std::uint32_t depth) noexcept {
  const std::uint64_t claim = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[claim & mask_];
  // Invalidate first so a concurrent reader never mixes this event's fields
  // with the previous occupant's; the new id is published last (release)
  // once every field is in place.
  slot.id.store(0, std::memory_order_release);
  slot.name.store(name, std::memory_order_relaxed);
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  slot.depth.store(depth, std::memory_order_relaxed);
  // release publishes the field writes above; readers acquire-load id.
  slot.id.store(claim + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceJournal::events() const {
  std::vector<TraceEvent> out;
  // acquire pairs with record()'s release id store: any event at or below
  // this head has fully published fields (or a visibly-changed id).
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t window = std::min<std::uint64_t>(head, slots_.size());
  out.reserve(static_cast<std::size_t>(window));
  for (std::uint64_t id = head - window + 1; id <= head && head > 0; ++id) {
    const Slot& slot = slots_[(id - 1) & mask_];
    if (slot.id.load(std::memory_order_acquire) != id) continue;  // overwritten
    TraceEvent event;
    event.name = slot.name.load(std::memory_order_relaxed);
    event.start_ns = slot.start_ns.load(std::memory_order_relaxed);
    event.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
    event.depth = slot.depth.load(std::memory_order_relaxed);
    event.id = id;
    // Re-check the generation: a writer wrapping past this slot mid-read
    // would have invalidated (or re-published) it under a different id.
    if (slot.id.load(std::memory_order_acquire) != id) continue;
    out.push_back(event);
  }
  return out;
}

namespace {
thread_local TraceJournal* t_journal = nullptr;
thread_local std::uint32_t t_depth = 0;
} // namespace

void bind_thread_journal(TraceJournal* journal) noexcept { t_journal = journal; }

void record_phase(const char* name, std::uint64_t start_ns,
                  std::uint64_t dur_ns) noexcept {
  if (t_journal != nullptr) t_journal->record(name, start_ns, dur_ns, t_depth + 1);
}

ScopedSpan::ScopedSpan(const char* name) noexcept
    : journal_(t_journal), name_(name) {
  if (journal_ != nullptr) {
    depth_ = ++t_depth;
    start_ns_ = now_ns();
  }
}

ScopedSpan::~ScopedSpan() {
  if (journal_ != nullptr) {
    journal_->record(name_, start_ns_, now_ns() - start_ns_, depth_);
    --t_depth;
  }
}

} // namespace bmh::obs
