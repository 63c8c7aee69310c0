// Tests for the thread pool / parallel_for.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace wormnet::util {
namespace {

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  ThreadPool pool(4);
  parallel_for(pool, 500, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForComputesDeterministicResult) {
  std::vector<double> out(1000, 0.0);
  parallel_for(1000, [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] = static_cast<double>(i) * 2.0;
  });
  const double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 999.0 * 1000.0);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  parallel_for(pool, 37, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 37);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  parallel_for(pool, 10, [&](std::int64_t) { ++count; });
  parallel_for(pool, 10, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, RunShardsFollowsTheThreadsRule) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(16);
  const auto job = [&](std::int64_t j) {
    ran[static_cast<std::size_t>(j)] = std::this_thread::get_id();
  };
  // threads = 1, and threads = 0 at or below the cutoff: the calling thread.
  run_shards(1, 1 << 20, 16, job);
  for (const auto& id : ran) EXPECT_EQ(id, caller);
  run_shards(0, kSerialCutoffProcs, 16, job);
  for (const auto& id : ran) EXPECT_EQ(id, caller);
  // Above it, threads = 0 and a private width run every shard once, off
  // the calling thread.
  for (const unsigned threads : {0u, 3u}) {
    std::vector<std::atomic<int>> hits(16);
    run_shards(threads, kSerialCutoffProcs + 1, 16, [&](std::int64_t j) {
      ++hits[static_cast<std::size_t>(j)];
      ran[static_cast<std::size_t>(j)] = std::this_thread::get_id();
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    for (const auto& id : ran) EXPECT_NE(id, caller);
  }
}

}  // namespace
}  // namespace wormnet::util
