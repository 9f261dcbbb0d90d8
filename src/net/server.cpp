#include "net/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "obs/log.hpp"

namespace fusecu {

NetServer::NetServer(PlanService& service, NetServerOptions options)
    : service_(service), options_(std::move(options)) {
  options_.max_conns = std::max(1, options_.max_conns);
  options_.queue_depth = std::max(1, options_.queue_depth);
  if (options_.reactors < 1) {
    throw std::invalid_argument("NetServerOptions::reactors must be at least 1, got " +
                                std::to_string(options_.reactors));
  }
  const int n = std::min(options_.reactors, 256);

  std::string error;
  const int listener = listen_tcp(options_.host, options_.port, error);
  if (listener < 0) {
    throw std::runtime_error("cannot listen on " + options_.host + ":" +
                             std::to_string(options_.port) + ": " + error);
  }
  bound_ = local_host_port(listener);

  // Reactor 0 owns the listener from its constructor on (it closes it even
  // when that constructor throws) and hands accepted fds to the others.
  const auto epoch = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    ReactorConfig cfg;
    cfg.index = i;
    cfg.listener_fd = i == 0 ? listener : -1;
    cfg.max_conns_total = options_.max_conns;
    cfg.queue_depth = options_.queue_depth;
    cfg.idle_timeout_ms = options_.idle_timeout_ms;
    cfg.watchdog_ms = options_.watchdog_ms;
    cfg.max_line_bytes = options_.max_line_bytes;
    cfg.write_high_water = options_.write_high_water;
    cfg.epoch = epoch;
    cfg.total_conns = &total_conns_;
    cfg.drain_requests = &drain_requests_;
    reactors_.push_back(std::make_unique<Reactor>(service_, cfg));
  }

  std::vector<Reactor*> peers;
  peers.reserve(reactors_.size());
  for (auto& reactor : reactors_) peers.push_back(reactor.get());
  for (auto& reactor : reactors_) reactor->set_peers(peers);
  drain_fds_.reserve(reactors_.size());
  for (auto& reactor : reactors_) drain_fds_.push_back(reactor->drain_fd());

  // Supervisor sources: every reactor loop, eligible only while run() is
  // live.  The heartbeat atomics live in the reactors, which outlive the
  // supervisor thread (stopped in run() before reactors are destroyed).
  std::vector<SupervisorSource> sources;
  for (std::size_t i = 0; i < reactors_.size(); ++i) {
    sources.push_back({"reactor." + std::to_string(i), &reactors_[i]->loop_epoch(),
                       &reactors_[i]->loop_live()});
  }
  supervisor_ = std::make_unique<Supervisor>(std::move(sources), options_.watchdog_ms);

  log_info("net", "listening",
           {{"addr", bound_.host + ":" + std::to_string(bound_.port)},
            {"reactors", std::to_string(n)},
            {"max_conns", std::to_string(options_.max_conns)},
            {"queue_depth", std::to_string(options_.queue_depth)}});
}

NetServer::~NetServer() = default;

void NetServer::request_drain() {
  // Async-signal-safe: one atomic bump + one write(2) per reactor.
  drain_requests_.fetch_add(1, std::memory_order_relaxed);
  const char byte = 1;
  for (int fd : drain_fds_) {
    [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
  }
}

void NetServer::run() {
  supervisor_->start();  // no-op when watchdog_ms == 0
  std::vector<std::thread> threads;
  threads.reserve(reactors_.size() - 1);
  for (std::size_t i = 1; i < reactors_.size(); ++i) {
    threads.emplace_back([reactor = reactors_[i].get()] { reactor->run(); });
  }
  reactors_[0]->run();
  // Joining every reactor is the drain barrier: run() returns only once
  // all shards have flushed and closed their connections.
  for (std::thread& t : threads) t.join();
  supervisor_->stop();
}

NetServer::Stats NetServer::stats() const {
  Stats sum;
  for (const auto& reactor : reactors_) sum += reactor->stats_snapshot();
  return sum;
}

NetServer::Stats NetServer::reactor_stats(int index) const {
  return reactors_[static_cast<std::size_t>(index)]->stats_snapshot();
}

}  // namespace fusecu
