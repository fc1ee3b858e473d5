#pragma once
/// \file env.hpp
/// \brief Environment-variable knobs shared by the benchmark harnesses.
///
/// Benches honour three variables so the same binaries scale from CI smoke
/// runs to full paper-sized reproductions:
///   BMH_SCALE        — multiplies instance sizes (default 1.0, clamped to
///                      [0.01, 100]).
///   BMH_MAX_THREADS  — caps thread sweeps (default: the hardware's cores).
///   BMH_REPEATS      — overrides the number of repetitions per data point.

#include <cstdint>
#include <string>
#include <vector>

namespace bmh {

/// Reads a double from the environment; returns `fallback` when unset/bad.
double env_double(const char* name, double fallback);

/// Reads an integer from the environment; returns `fallback` when unset/bad.
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Reads a string from the environment; returns `fallback` when unset.
std::string env_string(const char* name, const std::string& fallback);

/// BMH_SCALE, clamped to [0.01, 100].
double bench_scale();

/// Scales `n` by bench_scale(), with a floor to keep instances meaningful.
std::int64_t scaled(std::int64_t n, std::int64_t floor_value = 64);

/// Thread counts for a sweep: {1, 2, 4, ...} up to BMH_MAX_THREADS (default:
/// num_procs()), plus the cap itself when it is not a power of two. The
/// paper sweeps 1..16 on a 16-core box. Always starts at 1.
std::vector<int> thread_sweep();

} // namespace bmh
