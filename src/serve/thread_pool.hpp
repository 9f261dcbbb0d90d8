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
/// Fixed-size worker pool for the plan service's batch and stream paths
/// (plan_batch, serve_stream) and for the tools that fan work out over it
/// (run_conformance --jobs, llama_sweep).  The TCP server does not use it:
/// its reactors plan cache misses themselves.
///
/// Deliberately minimal: a locked FIFO feeding N long-lived workers.
/// Planning jobs are CPU-bound and coarse (microseconds to milliseconds
/// each), so queue contention is negligible and work stealing would be
/// over-engineering.
///
/// The workers start on the first queued job, not at construction: a pool
/// whose owner never queues anything (a PlanService used only through its
/// typed plan_intra / plan_fused calls, or behind a TCP server) never
/// creates a thread.  Every later job finds the full set of workers
/// running.

namespace fusecu {

class ThreadPool {
 public:
  /// \p threads is clamped to >= 1.  Starts no thread: the workers are
  /// spawned by the first submit().
  explicit ThreadPool(int threads);
  /// Drains nothing: pending jobs still run, then the started workers exit.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The configured worker count, whether or not the workers started yet.
  int size() const { return size_; }

  /// Enqueue \p fn; the future carries its return value or exception.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using Result = std::invoke_result_t<std::decay_t<Fn>>;
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (workers_.empty()) spawn_workers();
      queue_.push_slot() = [task]() { (*task)(); };
    }
    cv_.notify_one();
    return future;
  }

 private:
  /// Starts size_ workers.  Caller holds mu_ and has seen no worker running.
  void spawn_workers();
  void worker_loop();

  const int size_;
  std::mutex mu_;
  std::condition_variable cv_;
  RingBuffer<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;  ///< guarded by mu_; empty until the first job
};

}  // namespace fusecu
