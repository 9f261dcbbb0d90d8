#include "net/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace fusecu {

namespace {

std::int64_t sample_period_ms(std::int64_t watchdog_ms) {
  return std::max<std::int64_t>(10, std::min<std::int64_t>(250, watchdog_ms / 4));
}

}  // namespace

Supervisor::Supervisor(std::vector<SupervisorSource> sources, std::int64_t watchdog_ms)
    : watchdog_ms_(watchdog_ms), sample_ms_(sample_period_ms(std::max<std::int64_t>(1, watchdog_ms))) {
  watches_.reserve(sources.size());
  for (SupervisorSource& source : sources) {
    Watch watch;
    watch.source = std::move(source);
    watches_.push_back(std::move(watch));
  }
}

Supervisor::~Supervisor() { stop(); }

void Supervisor::start() {
  if (watchdog_ms_ <= 0 || watches_.empty() || running_) return;
  for (Watch& watch : watches_) {
    watch.last_epoch = watch.source.epoch->load(std::memory_order_relaxed);
    watch.stuck_ms = 0;
    watch.flagged = false;
  }
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this]() { run(); });
  running_ = true;
}

void Supervisor::stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  running_ = false;
}

void Supervisor::run() {
  Counter& stalls_counter = MetricsRegistry::global().counter("net/watchdog/stalls");
  while (!stop_.load(std::memory_order_relaxed)) {
    // Short chunks keep shutdown prompt without a cv handshake per source.
    // A stuck source is charged the time that really passed, so a
    // descheduled supervisor never undercounts a stall.
    const auto sample_start = std::chrono::steady_clock::now();
    std::int64_t slept = 0;
    while (slept < sample_ms_ && !stop_.load(std::memory_order_relaxed)) {
      const std::int64_t chunk = std::min<std::int64_t>(sample_ms_ - slept, 10);
      std::this_thread::sleep_for(std::chrono::milliseconds(chunk));
      slept = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - sample_start)
                  .count();
    }
    if (stop_.load(std::memory_order_relaxed)) break;

    for (Watch& watch : watches_) {
      const std::uint64_t epoch = watch.source.epoch->load(std::memory_order_relaxed);
      if (epoch != watch.last_epoch) {
        watch.last_epoch = epoch;
        watch.stuck_ms = 0;
        watch.flagged = false;  // episode over, re-arm
        continue;
      }
      const bool eligible =
          watch.source.busy == nullptr || watch.source.busy->load(std::memory_order_relaxed);
      if (!eligible) {
        watch.stuck_ms = 0;
        continue;
      }
      watch.stuck_ms += slept;
      if (watch.stuck_ms < watchdog_ms_ || watch.flagged) continue;

      // One report per stall episode: counter, structured log, and an
      // async-signal-safe flight dump on the crash fd (stderr fallback) —
      // a wedged process leaves the same forensics as a crashed one.
      watch.flagged = true;
      stalls_.fetch_add(1, std::memory_order_relaxed);
      stalls_counter.add(1);
      log_warn("net", "watchdog: heartbeat stalled",
               {{"source", watch.source.name},
                {"stuck_ms", std::to_string(watch.stuck_ms)},
                {"budget_ms", std::to_string(watchdog_ms_)}});
      FlightRecorder& recorder = FlightRecorder::global();
      if (recorder.armed()) {
        const int fd = recorder.crash_fd();
        recorder.dump_signal_safe(fd >= 0 ? fd : 2);
      }
    }
  }
}

}  // namespace fusecu
