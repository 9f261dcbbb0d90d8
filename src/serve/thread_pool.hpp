#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ring_buffer.hpp"

/// \file thread_pool.hpp
/// Fixed-size worker pool for the tools that fan whole jobs out over it
/// (run_conformance --jobs, llama_sweep).  The plan service does not use
/// it: every request is answered on the thread that read it, and a TCP
/// server scales over its reactors.
///
/// Deliberately minimal: a locked FIFO feeding N long-lived workers,
/// started at construction.  The jobs are CPU-bound and coarse
/// (milliseconds each), so queue contention is negligible and work
/// stealing would be over-engineering.

namespace fusecu {

class ThreadPool {
 public:
  /// Starts max(1, \p threads) workers.
  explicit ThreadPool(int threads);
  /// Drains nothing: pending jobs still run, then the workers exit.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue \p fn; the future carries its return value or exception.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using Result = std::invoke_result_t<std::decay_t<Fn>>;
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_slot() = [task]() { (*task)(); };
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  RingBuffer<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace fusecu
