// Tests for the thread pool's multi-job scheduler (util/thread_pool.h,
// DESIGN.md §10/§11): concurrent ParallelChunks callers each register their
// own job, so parallel regions of different queries run side by side.
//
//   - Region independence: a region stuck inside a chunk does not stop a
//     second caller's region on the same pool from completing.
//   - Slot uniqueness: within one job no two running chunks share a slot,
//     with several jobs live at once.
//
// Bit-identity of concurrent Engine callers across pool widths lives with
// the other whole-engine cases in concurrency_stress_test.cc.
//
// Registered under the `concurrency` ctest label so the TSan preset runs it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace levelheaded {
namespace {

TEST(SchedulerTest, BlockedRegionDoesNotStallAnotherCallersRegion) {
  ThreadPool pool(2);
  std::atomic<bool> a_entered{false};
  std::atomic<bool> release_a{false};
  // Caller A: chunk 0 parks until released; the rest of the region drains.
  std::thread caller_a([&] {
    pool.ParallelChunks(0, 64, 1, [&](int, int64_t lo, int64_t) {
      if (lo != 0) return;
      a_entered.store(true);
      while (!release_a.load()) std::this_thread::yield();
    });
  });
  while (!a_entered.load()) std::this_thread::yield();

  // Caller B: its region must finish while A's is still live.
  std::atomic<int64_t> b_sum{0};
  std::promise<void> b_done;
  std::future<void> b_finished = b_done.get_future();
  std::thread caller_b([&] {
    pool.ParallelChunks(0, 1000, 10, [&](int, int64_t lo, int64_t hi) {
      int64_t local = 0;
      for (int64_t i = lo; i < hi; ++i) local += i;
      b_sum.fetch_add(local);
    });
    b_done.set_value();
  });
  const bool b_completed = b_finished.wait_for(std::chrono::seconds(20)) ==
                           std::future_status::ready;
  release_a.store(true);  // let A drain either way, so both threads join
  caller_b.join();
  caller_a.join();
  EXPECT_TRUE(b_completed)
      << "caller B's region waited for caller A's region to finish";
  EXPECT_EQ(b_sum.load(), 1000 * 999 / 2);
}

TEST(SchedulerTest, NoTwoRunningChunksOfOneJobShareASlot) {
  ThreadPool pool(3);
  const int num_slots = pool.num_threads() + 1;
  constexpr int kDrivers = 4;
  constexpr int kRounds = 20;
  constexpr int64_t kN = 600;
  std::atomic<int> violations{0};
  std::atomic<int> out_of_range{0};
  std::atomic<int64_t> covered{0};
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        // One occupancy flag per slot, private to this job.
        std::vector<std::atomic<bool>> busy(num_slots);
        for (auto& b : busy) b.store(false);
        pool.ParallelChunks(0, kN, 1, [&](int slot, int64_t lo, int64_t hi) {
          if (slot < 0 || slot >= num_slots) {
            out_of_range.fetch_add(1);
            return;
          }
          if (busy[slot].exchange(true)) violations.fetch_add(1);
          // Hold the slot long enough for an overlap to be observable.
          volatile int64_t spin = 0;
          for (int i = 0; i < 200; ++i) spin = spin + i;
          covered.fetch_add(hi - lo);
          busy[slot].store(false);
        });
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(out_of_range.load(), 0);
  EXPECT_EQ(covered.load(), kDrivers * kRounds * kN);
  EXPECT_EQ(pool.job_counts().live, 0);
  EXPECT_EQ(pool.job_counts().started,
            static_cast<uint64_t>(kDrivers * kRounds));
}

}  // namespace
}  // namespace levelheaded
