#include "serve/thread_pool.hpp"

#include <algorithm>

namespace fusecu {

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  heartbeats_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) heartbeats_.push_back(std::make_unique<Heartbeat>());
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::spawn_workers() {
  workers_.reserve(heartbeats_.size());
  for (const std::unique_ptr<Heartbeat>& hb : heartbeats_) {
    Heartbeat* heartbeat = hb.get();
    workers_.emplace_back([this, heartbeat]() { worker_loop(heartbeat); });
  }
}

void ThreadPool::worker_loop(Heartbeat* heartbeat) {
  while (true) {
    void (*fn)(void*) = nullptr;
    void* arg = nullptr;
    std::function<void()> boxed;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      Job& job = queue_.front();
      fn = job.fn;
      arg = job.arg;
      if (fn == nullptr) boxed = std::move(job.boxed);
      queue_.pop_front();
    }
    heartbeat->epoch.fetch_add(1, std::memory_order_relaxed);
    heartbeat->busy.store(true, std::memory_order_relaxed);
    if (fn != nullptr) {
      fn(arg);
    } else {
      boxed();
    }
    heartbeat->busy.store(false, std::memory_order_relaxed);
    heartbeat->epoch.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace fusecu
