#include "util/thread_pool.hpp"

#include <algorithm>

namespace wormnet::util {

ThreadPool::ThreadPool(unsigned threads) {
  unsigned n = threads != 0 ? threads : std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_job_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push(std::move(job));
    ++in_flight_;
  }
  cv_job_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_job_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (stop_ && jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::int64_t n,
                  const std::function<void(std::int64_t)>& body) {
  for (std::int64_t i = 0; i < n; ++i) {
    pool.submit([&body, i] { body(i); });
  }
  pool.wait_idle();
}

void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& body) {
  ThreadPool pool;
  parallel_for(pool, n, body);
}

ThreadPool& shared_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace wormnet::util
