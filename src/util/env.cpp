#include "util/env.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/threading.hpp"

namespace bmh {

double env_double(const char* name, double fallback) {
  // Read-only env lookup; this process never setenv/putenvs after main.
  // NOLINTNEXTLINE(concurrency-mt-unsafe): see above
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup (see above).
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

double bench_scale() {
  return std::clamp(env_double("BMH_SCALE", 1.0), 0.01, 100.0);
}

std::int64_t scaled(std::int64_t n, std::int64_t floor_value) {
  const auto s = static_cast<std::int64_t>(static_cast<double>(n) * bench_scale());
  return std::max(s, floor_value);
}

std::vector<int> thread_sweep() {
  const auto cap =
      static_cast<int>(std::max<std::int64_t>(1, env_int("BMH_MAX_THREADS", num_procs())));
  std::vector<int> sweep;
  for (int t = 1; t <= cap; t *= 2) sweep.push_back(t);
  if (sweep.back() != cap) sweep.push_back(cap);
  return sweep;
}

} // namespace bmh
