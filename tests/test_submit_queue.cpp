/// \file test_submit_queue.cpp
/// \brief Tests for the Engine's bounded submission queue: slot recycling,
/// try_submit backpressure, derivation indices under rejection, a
/// multi-producer drain stress, and the allocation-freedom of the warm
/// single-job submit path (certified by the global allocation counter from
/// bench_common.hpp).

// Exactly one TU per binary may define this before including
// bench_common.hpp: it replaces the global operator new/delete with
// counting versions.
#define BMH_COUNT_ALLOCS

#include "../bench/bench_common.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <future>
#include <thread>
#include <vector>

#include "engine/engine_api.hpp"

namespace bmh {
namespace {

/// Parks the engine's (single) worker inside a delivery callback so the
/// submission side can be exercised with the consumer frozen: capacity
/// limits become observable and the submitting thread's allocations can be
/// counted without worker noise.
struct WorkerGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  std::function<void(JobResult&&)> blocker() {
    return [this](JobResult&&) {
      std::unique_lock<std::mutex> lock(mutex);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [this] { return released; });
    };
  }
  void await_entered() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return entered; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }
};

[[nodiscard]] JobSpec tiny_job() {
  return parse_job_spec_line("input=gen:cycle:n=8 algo=greedy quality=0 seed=7");
}

TEST(EngineSubmitQueue, WarmSubmitPerformsZeroHeapAllocations) {
  EngineConfig config;
  config.threads = 1;
  config.submit_queue_depth = 8;
  Engine engine(config);
  ASSERT_EQ(engine.submit_capacity(), 8u);

  WorkerGate gate;
  std::atomic<int> done{0};
  engine.submit(tiny_job(), gate.blocker());
  gate.await_entered();  // the worker is now parked inside the callback

  // Everything the submits need is constructed up front; the measured
  // window covers only the try_submit calls themselves. The callback's
  // capture is one pointer — trivially copyable and within std::function's
  // small-object buffer, so moving it into the slot allocates nothing.
  constexpr int kJobs = 8;
  std::vector<JobSpec> jobs;
  std::vector<std::function<void(JobResult&&)>> callbacks;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back(tiny_job());
    callbacks.emplace_back(
        [&done](JobResult&&) { done.fetch_add(1, std::memory_order_relaxed); });
  }

  // No gtest machinery inside the measured window — record, assert after.
  bool all_accepted = true;
  const bench::AllocStats before = bench::alloc_stats();
  for (int i = 0; i < kJobs; ++i)
    all_accepted &=
        engine.try_submit(std::move(jobs[static_cast<std::size_t>(i)]),
                          std::move(callbacks[static_cast<std::size_t>(i)]));
  const bench::AllocStats after = bench::alloc_stats();
  EXPECT_TRUE(all_accepted);
  EXPECT_EQ(after.allocations, before.allocations)
      << "a warm single-job submit must not allocate";

  gate.release();
  while (done.load(std::memory_order_acquire) < kJobs)
    std::this_thread::yield();
}

TEST(EngineSubmitQueue, SlotsRecycleIndefinitely) {
  // 100 jobs through a 4-slot queue: every slot is reused ~25 times, and
  // the blocking submit absorbs the capacity waits.
  EngineConfig config;
  config.threads = 1;
  config.submit_queue_depth = 4;
  Engine engine(config);
  ASSERT_EQ(engine.submit_capacity(), 4u);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i)
    engine.submit(tiny_job(), [&done](JobResult&& r) {
      ASSERT_TRUE(r.ok) << r.error;
      done.fetch_add(1, std::memory_order_relaxed);
    });
  while (done.load(std::memory_order_acquire) < 100) std::this_thread::yield();
  EXPECT_EQ(engine.stats().jobs_run, 100u);
}

TEST(EngineSubmitQueue, TrySubmitBackpressureLeavesArgumentsIntact) {
  EngineConfig config;
  config.threads = 1;
  config.submit_queue_depth = 4;
  Engine engine(config);

  WorkerGate gate;
  std::atomic<int> done{0};
  engine.submit(tiny_job(), gate.blocker());
  gate.await_entered();
  const auto count = [&done](JobResult&&) {
    done.fetch_add(1, std::memory_order_relaxed);
  };
  // Fill every submission slot (the parked job's slot was already
  // recycled when the worker claimed it).
  for (std::size_t i = 0; i < engine.submit_capacity(); ++i) {
    JobSpec job = tiny_job();
    ASSERT_TRUE(engine.try_submit(std::move(job), count));
  }
  // Full: try_submit must fail fast and hand both arguments back usable.
  JobSpec rejected = tiny_job();
  rejected.name = "keepme";
  std::function<void(JobResult&&)> rejected_done = count;
  EXPECT_FALSE(engine.try_submit(std::move(rejected), std::move(rejected_done)));
  EXPECT_EQ(rejected.name, "keepme");
  EXPECT_EQ(rejected.input.spec, "gen:cycle:n=8");
  EXPECT_TRUE(static_cast<bool>(rejected_done));

  gate.release();
  while (done.load(std::memory_order_acquire) <
         static_cast<int>(engine.submit_capacity()))
    std::this_thread::yield();
  // Capacity is back; the previously rejected job goes through.
  ASSERT_TRUE(engine.try_submit(std::move(rejected), std::move(rejected_done)));
  while (done.load(std::memory_order_acquire) <
         static_cast<int>(engine.submit_capacity()) + 1)
    std::this_thread::yield();
}

TEST(EngineSubmitQueue, FailedTrySubmitDoesNotAdvanceDerivationIndex) {
  EngineConfig config;
  config.threads = 1;
  config.submit_queue_depth = 4;
  Engine engine(config);

  WorkerGate gate;
  engine.submit(tiny_job(), gate.blocker());  // auto index 0
  gate.await_entered();
  std::atomic<int> done{0};
  const auto count = [&done](JobResult&&) {
    done.fetch_add(1, std::memory_order_relaxed);
  };
  for (int i = 0; i < 4; ++i) {
    JobSpec job = tiny_job();
    ASSERT_TRUE(engine.try_submit(std::move(job), count));  // indices 1..4
  }
  JobSpec overflow = tiny_job();
  std::function<void(JobResult&&)> overflow_done = count;
  ASSERT_FALSE(engine.try_submit(std::move(overflow), std::move(overflow_done)));

  gate.release();
  while (done.load(std::memory_order_acquire) < 4) std::this_thread::yield();
  // The failed attempt must not have burned an index: the next auto-indexed
  // submit derives from position 5, with no hole at 5 left by the failure.
  std::promise<std::size_t> index_seen;
  engine.submit(tiny_job(), [&index_seen](JobResult&& r) {
    index_seen.set_value(r.index);
  });
  EXPECT_EQ(index_seen.get_future().get(), 5u);
}

TEST(EngineSubmitQueue, EightThreadSubmitDrainStressFulfilsEveryPromiseOnce) {
  // 8 producers x 250 jobs through a deliberately small queue on a small
  // pool: heavy slot recycling, constant backpressure, and per-submission
  // exactly-once accounting via explicit derivation indices.
  constexpr std::size_t kProducers = 8;
  constexpr std::size_t kPerProducer = 250;
  EngineConfig config;
  config.threads = 4;
  config.submit_queue_depth = 16;
  Engine engine(config);

  std::vector<std::atomic<std::uint32_t>> fired(kProducers * kPerProducer);
  for (auto& f : fired) f.store(0, std::memory_order_relaxed);
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const std::size_t index = p * kPerProducer + i;
        auto callback = [&fired, &done, index](JobResult&& r) {
          EXPECT_EQ(r.index, index);
          fired[index].fetch_add(1, std::memory_order_relaxed);
          done.fetch_add(1, std::memory_order_relaxed);
        };
        // Alternate blocking and non-blocking entry points; the
        // non-blocking one retries until accepted so every submission
        // lands exactly once.
        if (i % 2 == 0) {
          engine.submit(tiny_job(), callback, index);
        } else {
          JobSpec job = tiny_job();
          std::function<void(JobResult&&)> fn = callback;
          while (!engine.try_submit(std::move(job), std::move(fn), index))
            std::this_thread::yield();
        }
      }
    });
  for (std::thread& t : producers) t.join();
  while (done.load(std::memory_order_acquire) < kProducers * kPerProducer)
    std::this_thread::yield();
  for (std::size_t i = 0; i < fired.size(); ++i)
    ASSERT_EQ(fired[i].load(std::memory_order_relaxed), 1u)
        << "submission " << i << " fired the wrong number of callbacks";
  EXPECT_EQ(engine.stats().jobs_run, kProducers * kPerProducer);
  EXPECT_EQ(engine.stats().jobs_failed, 0u);
}

} // namespace
} // namespace bmh
