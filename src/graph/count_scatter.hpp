#pragma once
/// \file count_scatter.hpp
/// \brief The deterministic parallel counting sort behind graph assembly and
/// the CSC view, and the block sum behind their validation passes.
///
/// `count_scatter` places n keyed items into key order, keeping input order
/// within each key (a stable counting sort). Each thread of the ambient
/// OpenMP team takes a contiguous slice of the input and counts its keys
/// into its own histogram; a prefix over (key, thread) then gives every
/// slice its own run of positions inside each key's bucket. Slices are in
/// input order and so are their runs, so the output is exactly the serial
/// scatter's, at any team size.
///
/// A team of one runs the serial count-and-scatter with the offsets array as
/// its cursor, and needs no scratch. So does any input below
/// kParallelMinItems, and any input whose team × keys histograms would
/// outnumber its items (a wide, sparse graph): scratch stays bounded by the
/// item count. Histogram scratch is the caller's vector, resized before the
/// parallel region, so a pooled caller allocates nothing once warm and no
/// exception can leave the region.

#include <algorithm>
#include <cstddef>
#include <span>

#include <omp.h>

#include "util/default_init.hpp"
#include "util/types.hpp"

namespace bmh {

/// Inputs smaller than this scatter and sum on one thread, with no parallel
/// region: entering one costs more than it saves below this size.
inline constexpr std::size_t kParallelMinItems = std::size_t{1} << 15;

/// The team count_scatter runs `items` items over `num_keys` keys on: the
/// ambient OpenMP team, shrunk until team × num_keys histogram counters fit
/// in `items`; 1 (the serial loop) for small inputs.
[[nodiscard]] inline int count_scatter_team(std::size_t items,
                                            std::size_t num_keys) noexcept {
  if (items < kParallelMinItems) return 1;
  const std::size_t fit = items / std::max<std::size_t>(num_keys, 1);
  return static_cast<int>(std::clamp<std::size_t>(
      fit, 1, static_cast<std::size_t>(omp_get_max_threads())));
}

/// The sum (T's +=) of body(begin, end) over contiguous blocks covering
/// [0, n): one block per thread of the ambient OpenMP team when
/// n >= kParallelMinItems, one inline call below that, where entering a
/// parallel region would cost more than the loop. `body` must not throw.
/// Sums of integers do not depend on the team size.
template <class T, class Body>
[[nodiscard]] T parallel_sum(std::size_t n, const Body& body) {
  if (n < kParallelMinItems) return body(std::size_t{0}, n);
  T total{};
#pragma omp parallel
  {
    const auto size = static_cast<std::size_t>(omp_get_num_threads());
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    const T part = body(n * t / size, n * (t + 1) / size);
#pragma omp critical(bmh_parallel_sum)
    total += part;
  }
  return total;
}

/// Stable counting sort of items [0, n) by key. `key(i)` is item i's key,
/// in [0, num_keys); `visit(begin, end, sink)` must call `sink(key, value)`
/// for each item in [begin, end), in input order. Neither may throw. On
/// return `offsets` (num_keys + 1 entries) holds each key's first position
/// and n at the end, and out[offsets[k] ..] holds the values of key k in
/// input order. `hist` is the parallel branch's scratch, team ×
/// (num_keys + 1) counters.
template <class Key, class Visit>
void count_scatter(std::size_t n, std::size_t num_keys, const Key& key,
                   const Visit& visit, std::span<eid_t> offsets, std::span<vid_t> out,
                   DefaultInitVector<eid_t>& hist) {
  const int team = count_scatter_team(n, num_keys);
  if (team <= 1) {
    // Count into offsets[k + 1], prefix, scatter with offsets[k] as the
    // cursor, which leaves offsets[k] at the end of bucket k; shifting right
    // restores the starts.
    std::fill(offsets.begin(), offsets.end(), 0);
    for (std::size_t i = 0; i < n; ++i) ++offsets[static_cast<std::size_t>(key(i)) + 1];
    for (std::size_t k = 0; k < num_keys; ++k) offsets[k + 1] += offsets[k];
    visit(std::size_t{0}, n, [offsets, out](vid_t k, vid_t value) {
      out[static_cast<std::size_t>(offsets[static_cast<std::size_t>(k)]++)] = value;
    });
    for (std::size_t k = num_keys; k-- > 1;) offsets[k] = offsets[k - 1];
    offsets[0] = 0;
    return;
  }
  // One histogram per thread, then one block total per thread.
  hist.resize(static_cast<std::size_t>(team) * (num_keys + 1));
  eid_t* const counts = hist.data();
  eid_t* const block = counts + static_cast<std::size_t>(team) * num_keys;
#pragma omp parallel num_threads(team)
  {
    // The runtime may grant fewer threads than asked; slice by what it gave.
    const auto size = static_cast<std::size_t>(omp_get_num_threads());
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    eid_t* const mine = counts + t * num_keys;
    const std::size_t begin = n * t / size;
    const std::size_t end = n * (t + 1) / size;
    std::fill_n(mine, num_keys, 0);
    for (std::size_t i = begin; i < end; ++i) ++mine[static_cast<std::size_t>(key(i))];
#pragma omp barrier
    // Each thread owns a key range: its total first, then, once every
    // total is in, its bucket starts and each slice's run inside them.
    const std::size_t key_begin = num_keys * t / size;
    const std::size_t key_end = num_keys * (t + 1) / size;
    eid_t total = 0;
    for (std::size_t k = key_begin; k < key_end; ++k)
      for (std::size_t s = 0; s < size; ++s) total += counts[s * num_keys + k];
    block[t] = total;
#pragma omp barrier
    eid_t running = 0;
    for (std::size_t s = 0; s < t; ++s) running += block[s];
    for (std::size_t k = key_begin; k < key_end; ++k) {
      offsets[k] = running;
      for (std::size_t s = 0; s < size; ++s) {
        const eid_t count = counts[s * num_keys + k];
        counts[s * num_keys + k] = running;
        running += count;
      }
    }
#pragma omp barrier
    visit(begin, end, [mine, out](vid_t k, vid_t value) {
      out[static_cast<std::size_t>(mine[static_cast<std::size_t>(k)]++)] = value;
    });
  }
  offsets[num_keys] = static_cast<eid_t>(n);
}

} // namespace bmh
