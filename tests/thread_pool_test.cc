#include "util/thread_pool.h"

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ldpids {
namespace {

TEST(HardwareThreadsTest, IsAtLeastOne) {
  EXPECT_GE(HardwareThreads(), 1u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  ParallelFor(8, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, SingleThreadRunsInlineOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(16);
  ParallelFor(1, ids.size(), [&](std::size_t i) {
    ids[i] = std::this_thread::get_id();
  });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ParallelForTest, ZeroAndOneTaskEdgeCases) {
  int calls = 0;
  ParallelFor(4, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(4, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, MoreThreadsThanTasks) {
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  ParallelFor(16, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, PropagatesTheFirstException) {
  EXPECT_THROW(
      ParallelFor(4, 100,
                  [&](std::size_t i) {
                    if (i == 37) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool must stay usable after an exceptional job.
  std::atomic<int> count{0};
  ParallelFor(4, 50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  ParallelFor(4, 8, [&](std::size_t outer) {
    ParallelFor(4, 8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, RepeatedJobsOnTheSharedPool) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    ParallelFor(8, 100, [&](std::size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 5050u);
  }
}

TEST(ThreadPoolTest, DedicatedPoolRunsTasksAcrossThreads) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(200);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, MaxThreadsCapIsHonoredAndCorrect) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(hits.size(), 2, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, BackToBackTwoLaneJobsFromTwoCallersRunEachIndexOnce) {
  // A 2-lane job wakes one worker for its one free slot. Two callers
  // queue many such jobs back to back on one pool, so a worker often
  // wakes for a job that is already done or staffed: a lost wake-up would
  // hang a job, and a stale one could run an index twice.
  ThreadPool pool(8);
  constexpr std::size_t kJobs = 2000;
  constexpr std::size_t kMaxN = 5;
  std::vector<std::atomic<int>> hits(2 * kJobs * kMaxN);
  for (auto& h : hits) h.store(0);
  const auto caller = [&](std::size_t c) {
    for (std::size_t job = 0; job < kJobs; ++job) {
      std::atomic<int>* slice = hits.data() + (c * kJobs + job) * kMaxN;
      const std::size_t n = 2 + job % (kMaxN - 1);  // 2..kMaxN indices
      pool.ParallelFor(n, 2, [&](std::size_t i) { slice[i].fetch_add(1); });
    }
  };
  std::thread first(caller, 0);
  std::thread second(caller, 1);
  first.join();
  second.join();
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t job = 0; job < kJobs; ++job) {
      const std::size_t n = 2 + job % (kMaxN - 1);
      for (std::size_t i = 0; i < kMaxN; ++i) {
        EXPECT_EQ(hits[(c * kJobs + job) * kMaxN + i].load(), i < n ? 1 : 0)
            << "caller " << c << " job " << job << " index " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPoolTest, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(8);
  pool.ParallelFor(ids.size(), [&](std::size_t i) {
    ids[i] = std::this_thread::get_id();
  });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

}  // namespace
}  // namespace ldpids
