#pragma once
/// \file rng.hpp
/// \brief Deterministic, splittable pseudo-random number generation.
///
/// The heuristics in this library are randomized, and both the tests and the
/// benchmark harnesses need reproducible runs, including under OpenMP where
/// each thread must own an independent stream. We use two small PRNGs:
///
///  * SplitMix64 — a tiny state-advance generator used for seeding.
///  * Xoshiro256** — a fast, high-quality generator for the actual draws.
///
/// `Rng::fork(i)` derives a statistically independent stream for index `i`,
/// so a parallel loop can use `rng.fork(static_cast<std::uint64_t>(i))` per
/// iteration and the output is identical regardless of the thread count —
/// the property the paper relies on when claiming quality does not degrade
/// with parallelism.

#include <cstdint>
#include <limits>

namespace bmh {

/// SplitMix64: used to expand a 64-bit seed into generator state.
class SplitMix64 {
public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

private:
  std::uint64_t state_;
};

/// Xoshiro256** by Blackman & Vigna. Satisfies UniformRandomBitGenerator.
class Rng {
public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit constexpr Rng(std::uint64_t seed = 0x1234abcdULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept { return next(); }

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1). Uses the top 53 bits.
  constexpr double next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1]; never returns 0, suitable for use as the
  /// random threshold `r` in inverse-CDF sampling over positive weights.
  constexpr double next_double_open0() noexcept {
    return 1.0 - next_double();
  }

  /// Uniform integer in [0, bound). Lemire's multiply-shift rejection-free
  /// variant is unnecessary here; modulo bias is negligible for our bounds,
  /// but we still use the widening-multiply trick for speed and uniformity.
  constexpr std::uint64_t next_below(std::uint64_t bound) noexcept {
    const unsigned __int128 m =
        static_cast<unsigned __int128>(next()) * static_cast<unsigned __int128>(bound);
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Derives an independent stream for lane `lane`. Deterministic: the same
  /// (parent seed, lane) pair always yields the same child stream.
  [[nodiscard]] constexpr Rng fork(std::uint64_t lane) const noexcept {
    SplitMix64 sm(s_[0] ^ (0x9e3779b97f4a7c15ULL * (lane + 1)));
    return Rng(sm.next() ^ s_[3]);
  }

private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4] = {};
};

} // namespace bmh
