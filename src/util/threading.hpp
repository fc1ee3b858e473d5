#pragma once
/// \file threading.hpp
/// \brief Thin wrapper around OpenMP runtime controls.
///
/// All parallel regions in the library use the ambient OpenMP thread count;
/// these helpers let tests and benches sweep thread counts deterministically
/// without touching environment variables mid-process.

#include <optional>

namespace bmh {

/// Sets the number of OpenMP threads used by subsequent parallel regions.
void set_num_threads(int n);

/// Maximum number of threads a parallel region would use right now.
[[nodiscard]] int max_threads() noexcept;

/// Number of physical processors visible to the OpenMP runtime.
[[nodiscard]] int num_procs() noexcept;

/// RAII guard that sets the thread count and restores the previous value.
class ThreadCountGuard {
public:
  explicit ThreadCountGuard(int n);
  ~ThreadCountGuard();
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

private:
  int previous_;
};

/// A job's thread budget for the guard's lifetime: `threads` > 0 sets the
/// team to min(threads, num_procs()), `threads` <= 0 keeps the ambient
/// count. Capped, never rejected, so a spec's `threads=` is valid on every
/// host; past the processor count a team only oversubscribes, and a huge
/// one would ask the runtime for that many OS threads. ThreadCountGuard
/// stays uncapped for deliberate oversubscription (tests, Fig. 4).
class JobThreadGuard {
public:
  explicit JobThreadGuard(int threads);

private:
  std::optional<ThreadCountGuard> guard_;
};

} // namespace bmh
