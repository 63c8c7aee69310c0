// wormnet/util/thread_pool.hpp
//
// A small fixed-size thread pool with a parallel_for helper.  The experiment
// harness runs independent (load, worm-length, seed) simulation points; each
// point is single-threaded and deterministic, and the pool distributes points
// across cores.  On a single-core host the pool degrades to sequential
// execution with no behavioral difference — results are identical because the
// per-point RNG streams are keyed by point index, not by scheduling order.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace wormnet::util {

/// Fixed-size worker pool executing void() jobs FIFO.
class ThreadPool {
 public:
  /// Create `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a job.
  void submit(std::function<void()> job);

  /// Block until every submitted job has finished.
  void wait_idle();

  /// Number of worker threads.
  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mu_;
  std::condition_variable cv_job_;
  std::condition_variable cv_idle_;
  std::int64_t in_flight_ = 0;
  bool stop_ = false;
};

/// Run body(i) for i in [0, n) across the pool's workers and wait.
/// body must be safe to call concurrently for distinct i.
void parallel_for(ThreadPool& pool, std::int64_t n,
                  const std::function<void(std::int64_t)>& body);

/// Convenience: run body(i) for i in [0, n) on a temporary pool sized to the
/// hardware (sequential on single-core machines).
void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& body);

/// Processor count at or below which run_shards(threads = 0) runs serially:
/// the fork/join overhead exceeds a whole dense BFT(3) build there
/// (BENCH_perf.json, BM_TrafficModelBuildFatTree/3).
inline constexpr int kSerialCutoffProcs = 128;

/// The process-wide pool behind run_shards(threads = 0): created on first
/// use, sized to the hardware, and shared by the traffic-model builder, the
/// fault delta and the fault view so small jobs don't pay a pool spin-up
/// per call.  parallel_for waits until the whole pool is idle, so never
/// run_shards(0, ...) on one of this pool's own workers (no shard job
/// does): it would wait for itself.  Callers on several other threads may
/// share it; each then also waits for the others' shards in flight.
ThreadPool& shared_pool();

/// Run job(j) for every shard j in [0, num_shards) under the
/// TrafficBuildOptions::threads rule: serially on the calling thread when
/// threads = 1, when there is one shard, or when threads = 0 and `procs`
/// (the topology's processor count) is at or below kSerialCutoffProcs;
/// else on shared_pool() (threads = 0) or on a private pool of `threads`
/// workers.  Callers fix the shards from the problem alone and keep each
/// shard's output in its own slot, so results cannot depend on which of
/// these ran them.
template <typename Job>
void run_shards(unsigned threads, int procs, int num_shards, const Job& job) {
  if (threads == 1 || num_shards == 1 ||
      (threads == 0 && procs <= kSerialCutoffProcs)) {
    for (int j = 0; j < num_shards; ++j) job(j);
  } else if (threads == 0) {
    parallel_for(shared_pool(), num_shards, job);
  } else {
    ThreadPool pool(threads);
    parallel_for(pool, num_shards, job);
  }
}

}  // namespace wormnet::util
