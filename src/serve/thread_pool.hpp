#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
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
/// Fixed-size worker pool used by the plan service.
///
/// Deliberately minimal: a locked FIFO feeding N long-lived workers.
/// Planning jobs are CPU-bound and coarse (microseconds to milliseconds
/// each), so queue contention is negligible and work stealing would be
/// over-engineering.
///
/// The workers start on the first queued job, not at construction: a pool
/// whose owner never queues anything (a PlanService used only through its
/// typed plan_intra / plan_fused calls) never creates a thread.  Every
/// later job finds the full set of workers running.
///
/// Two submission paths share the queue:
///
///   * submit(fn) — std::function + future plumbing for batch/stream
///     callers that want the return value;
///   * post(fn, arg) — a bare function pointer + context pointer for the
///     net/ reactors, whose hot path must not allocate.  The queue is a
///     capacity-preserving ring (common/ring_buffer.hpp), so after the
///     first job (which starts the workers) and warm-up a post() costs one
///     mutex acquisition and a condition-variable signal, zero heap traffic.

namespace fusecu {

class ThreadPool {
 public:
  /// Per-worker liveness signal for the net/ Supervisor: the worker bumps
  /// `epoch` (relaxed) before and after every job and raises `busy` for the
  /// job's duration.  A worker whose epoch stalls while busy is hung inside
  /// a task; an idle or not yet started worker (busy=false) is never
  /// flagged.  Heap-allocated once per worker at construction so the
  /// atomics have stable addresses the supervisor can sample at any time.
  struct Heartbeat {
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<bool> busy{false};
  };

  /// \p threads is clamped to >= 1.  Starts no thread: the workers are
  /// spawned by the first submit() or post().
  explicit ThreadPool(int threads);
  /// Drains nothing: pending jobs still run, then the started workers exit.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The configured worker count, whether or not the workers started yet.
  int size() const { return static_cast<int>(heartbeats_.size()); }

  /// One heartbeat per configured worker, index-aligned with the worker
  /// threads.  Stable for the pool's lifetime.
  const std::vector<std::unique_ptr<Heartbeat>>& heartbeats() const { return heartbeats_; }

  /// Enqueue \p fn; the future carries its return value or exception.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using Result = std::invoke_result_t<std::decay_t<Fn>>;
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (workers_.empty()) spawn_workers();
      Job& job = queue_.push_slot();
      job.fn = nullptr;
      job.arg = nullptr;
      job.boxed = [task]() { (*task)(); };
    }
    cv_.notify_one();
    return future;
  }

  /// Enqueue \p fn(\p arg) without touching the allocator (ring slot reuse;
  /// the stale boxed closure in the slot is released, never created).  The
  /// caller owns \p arg's lifetime until the job runs — the net/ reactors
  /// pass arena-pooled request objects.
  void post(void (*fn)(void*), void* arg) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (workers_.empty()) spawn_workers();
      Job& job = queue_.push_slot();
      job.fn = fn;
      job.arg = arg;
      job.boxed = nullptr;  // drops a stale closure's heap state, if any
    }
    cv_.notify_one();
  }

 private:
  /// One queued job: either a bare (fn, arg) pair or a boxed closure.
  struct Job {
    void (*fn)(void*) = nullptr;
    void* arg = nullptr;
    std::function<void()> boxed;
  };

  /// Starts one worker per heartbeat.  Caller holds mu_ and has seen no
  /// worker running.
  void spawn_workers();
  void worker_loop(Heartbeat* heartbeat);

  std::mutex mu_;
  std::condition_variable cv_;
  RingBuffer<Job> queue_;
  bool stopping_ = false;
  std::vector<std::unique_ptr<Heartbeat>> heartbeats_;
  std::vector<std::thread> workers_;  ///< guarded by mu_; empty until the first job
};

}  // namespace fusecu
