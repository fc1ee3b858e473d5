#pragma once
/// \file count_scatter.hpp
/// \brief The deterministic parallel counting sort behind graph assembly,
/// the CSC view and k_out's merge path, and the block sum behind their
/// validation passes.
///
/// `count_scatter` places n keyed items into key order, keeping input order
/// within each key (a stable counting sort), with the same output at any
/// team size. From kParallelMinItems items it runs on the ambient OpenMP
/// team, of any size, as a two-pass key-block sort (Polychroniou and Ross,
/// SIGMOD 2014):
///
///   * The keys split into at most kMaxKeyBlocks blocks of 2^shift
///     consecutive keys. Each thread takes a contiguous slice of the input
///     and counts its items per block.
///   * Pass 1: a prefix over (block, thread) gives every slice its own run
///     inside each block's range of a staging buffer, and each thread
///     copies its items there as (key, value) pairs. Slices are in input
///     order and so are their runs, so each block's range holds its items
///     in input order.
///   * Pass 2: threads take whole blocks and finish the sort inside them: a
///     counting sort of the block's staged items by key, straight into the
///     block's range of the output and its keys' offsets.
///
/// Pass 1 writes each cache line of the staging from one thread, but for
/// the lines where two runs meet, and pass 2 each line of the output, so
/// no thread writes into another's key range as a per-key scatter would.
/// A block's items and counters fit in the core's cache, so the two passes
/// also beat the per-key scatter on one thread. When the count finds the
/// keys already in order, the sort is the identity: each thread copies its
/// slice's values to the same positions and writes the offsets of the keys
/// its slice covers, with no staging.
///
/// Scratch is team × blocks counters, which stay within the item count,
/// and a staging buffer of n `Edge`s (key in `row`, value in `col`), 8 bytes
/// an item. Both are the caller's vectors, grown before the parallel
/// region, so no exception can leave it. Every item is read before any is
/// placed, so the output may overwrite the input: GraphBuilder sorts its
/// edge buffer in place this way and then hands that buffer to the CSC
/// build as its staging; k_out keeps its staging in a Workspace. Below
/// kParallelMinItems one thread counts, stages each item at its sorted
/// position, with the offsets array as its cursor, and copies the staging
/// out, with no parallel region.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <span>

#include <omp.h>

#include "util/default_init.hpp"
#include "util/types.hpp"

namespace bmh {

/// Inputs smaller than this scatter and sum on one thread, with no parallel
/// region: entering one costs more than it saves below this size.
inline constexpr std::size_t kParallelMinItems = std::size_t{1} << 15;

/// The most key blocks count_scatter's pass 1 writes to: with one run per
/// block open on each thread, its write cursors stay in the core's cache.
inline constexpr std::size_t kMaxKeyBlocks = 512;

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
/// for each item in [begin, end), in input order; `place(pos, key, value)`
/// stores an item at output position pos. None may throw. On return
/// `offsets` (num_keys + 1 entries) holds each key's first position and n
/// at the end, and positions offsets[k] .. of the output hold the items of
/// key k in input order. An item is placed only after the whole input has
/// been read, or, when the input is already in key order, at its own
/// position right after it has been read, so `place` may write over the
/// input. `counts` and `staging` are the scratch: team × blocks counters
/// (at most n) and n staged items; a staging already that large is used as
/// it is.
template <class Key, class Visit, class Place>
void count_scatter(std::size_t n, std::size_t num_keys, const Key& key,
                   const Visit& visit, std::span<eid_t> offsets, const Place& place,
                   DefaultInitVector<eid_t>& counts, DefaultInitVector<Edge>& staging) {
  if (staging.size() < n) staging.resize(n);
  Edge* const staged = staging.data();
  if (n < kParallelMinItems) {
    // Count into offsets[k + 1], prefix, stage with offsets[k] as the
    // cursor, which leaves offsets[k] at the end of bucket k; shifting right
    // restores the starts.
    std::fill(offsets.begin(), offsets.end(), 0);
    for (std::size_t i = 0; i < n; ++i) ++offsets[static_cast<std::size_t>(key(i)) + 1];
    for (std::size_t k = 0; k < num_keys; ++k) offsets[k + 1] += offsets[k];
    visit(std::size_t{0}, n, [offsets, staged](vid_t k, vid_t value) {
      staged[offsets[static_cast<std::size_t>(k)]++] = Edge{k, value};
    });
    for (std::size_t k = num_keys; k-- > 1;) offsets[k] = offsets[k - 1];
    offsets[0] = 0;
    for (std::size_t i = 0; i < n; ++i) place(i, staged[i].row, staged[i].col);
    return;
  }
  const auto team = static_cast<std::size_t>(omp_get_max_threads());
  // The fewest blocks of 2^shift keys within kMaxKeyBlocks, and within n
  // counters over the team (n >= kParallelMinItems leaves room for 64
  // threads at kMaxKeyBlocks).
  const std::size_t max_blocks = std::clamp<std::size_t>(n / team, 1, kMaxKeyBlocks);
  const std::size_t last_key = std::max<std::size_t>(num_keys, 1) - 1;
  unsigned shift = 0;
  while ((last_key >> shift) + 1 > max_blocks) ++shift;
  const std::size_t blocks = (last_key >> shift) + 1;
  counts.resize(team * blocks);
  eid_t* const cursors = counts.data();
  std::atomic<bool> unordered{false};
#pragma omp parallel num_threads(static_cast<int>(team))
  {
    // The runtime may grant fewer threads than asked; slice by what it gave.
    const auto size = static_cast<std::size_t>(omp_get_num_threads());
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    const std::size_t begin = n * t / size;
    const std::size_t end = n * (t + 1) / size;
    eid_t* const mine = cursors + t * blocks;
    std::fill_n(mine, blocks, 0);
    // Count the slice per block, and check its keys against their
    // predecessors, the first against the previous slice's last, read now:
    // after the barrier its owner may be placing it.
    const std::size_t before = begin == 0 ? 0 : static_cast<std::size_t>(key(begin - 1));
    std::size_t last = before;
    bool ordered = true;
    for (std::size_t i = begin; i < end; ++i) {
      const auto k = static_cast<std::size_t>(key(i));
      ++mine[k >> shift];
      ordered &= k >= last;
      last = k;
    }
    // Relaxed: read only after the barrier, which orders it.
    if (!ordered) unordered.store(true, std::memory_order_relaxed);
#pragma omp barrier
    if (!unordered.load(std::memory_order_relaxed)) {
      // Keys in order: item i stays at position i. Each thread writes the
      // offsets of the keys after its predecessor's up to its own last.
      std::size_t next = begin == 0 ? 0 : before + 1;
      std::size_t at = begin;
      visit(begin, end, [offsets, &place, &next, &at](vid_t k, vid_t value) {
        for (; next <= static_cast<std::size_t>(k); ++next) offsets[next] = static_cast<eid_t>(at);
        place(at++, k, value);
      });
      if (t + 1 == size)
        for (; next < num_keys; ++next) offsets[next] = static_cast<eid_t>(n);
    } else {
      // Block b's run for slice s starts after all of the earlier blocks
      // and after the earlier slices' runs in b.
#pragma omp single
      {
        eid_t running = 0;
        for (std::size_t b = 0; b < blocks; ++b)
          for (std::size_t s = 0; s < size; ++s) {
            const eid_t count = cursors[s * blocks + b];
            cursors[s * blocks + b] = running;
            running += count;
          }
      }
      visit(begin, end, [mine, staged, shift](vid_t k, vid_t value) {
        staged[mine[static_cast<std::size_t>(k) >> shift]++] = Edge{k, value};
      });
#pragma omp barrier
      // The last slice's cursors now end each block. Within block b the
      // keys' offsets count, prefix from the block's start, serve as the
      // scatter's cursors and shift back to their starts, as in the serial
      // loop; every key of the block is the block's own.
      eid_t* const ends = cursors + (size - 1) * blocks;
#pragma omp for schedule(dynamic, 1)
      for (std::size_t b = 0; b < blocks; ++b) {
        const eid_t lo = b == 0 ? 0 : ends[b - 1];
        const eid_t hi = ends[b];
        const std::size_t first_key = b << shift;
        const std::size_t width = std::min(num_keys - first_key, std::size_t{1} << shift);
        eid_t* const cursor = offsets.data() + first_key;
        std::fill_n(cursor, width, 0);
        for (eid_t e = lo; e < hi; ++e)
          ++cursor[static_cast<std::size_t>(staged[e].row) - first_key];
        eid_t running = lo;
        for (std::size_t k = 0; k < width; ++k) {
          const eid_t count = cursor[k];
          cursor[k] = running;
          running += count;
        }
        for (eid_t e = lo; e < hi; ++e)
          place(static_cast<std::size_t>(
                    cursor[static_cast<std::size_t>(staged[e].row) - first_key]++),
                staged[e].row, staged[e].col);
        for (std::size_t k = width; k-- > 1;) cursor[k] = cursor[k - 1];
        cursor[0] = lo;
      }
    }
  }
  offsets[num_keys] = static_cast<eid_t>(n);
}

} // namespace bmh
