#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

/// \file supervisor.hpp
/// Watchdog thread proving liveness of the reactor loops.
///
/// Every supervised loop publishes a heartbeat: a relaxed atomic epoch
/// counter it bumps each loop turn, plus an optional eligibility flag
/// (`busy`) that gates detection — a drained reactor sets its live flag
/// false before exiting.  The Supervisor samples every source a few times
/// per budget and classifies a source whose epoch has not advanced for
/// `watchdog_ms` while eligible as *stalled*: it bumps
/// `net/watchdog/stalls`, emits a structured warn log, and — once per
/// stall episode — writes an async-signal-safe flight recorder dump to the
/// crash fd (the same path the SIGSEGV handler uses), so a wedged-but-alive
/// process leaves the same forensics as a crashed one.  When the epoch
/// advances again the episode ends and the source re-arms.
///
/// Reactors plan cache misses in place, so a plan that hangs stalls its
/// reactor and is reported here.  Detection is observational only: the
/// Supervisor never cancels work.
///
/// Sampling period: max(10, min(250, watchdog_ms / 4)) ms, so a stall is
/// seen within ~1.25 budgets at worst.  The thread is started by
/// NetServer::run() when `--watchdog-ms` > 0 and joined on drain.

namespace fusecu {

/// One supervised heartbeat.  `epoch` must outlive the Supervisor; `busy`
/// may be nullptr, meaning the source is always eligible for detection.
struct SupervisorSource {
  std::string name;  ///< e.g. "reactor.0" (logged on stall)
  const std::atomic<std::uint64_t>* epoch = nullptr;
  const std::atomic<bool>* busy = nullptr;
};

class Supervisor {
 public:
  /// \p watchdog_ms <= 0 disables the thread entirely (start() no-ops).
  Supervisor(std::vector<SupervisorSource> sources, std::int64_t watchdog_ms);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  void start();
  void stop();

  /// Stall episodes detected so far (for tests; the authoritative counter
  /// is the `net/watchdog/stalls` metric).
  std::int64_t stalls_detected() const { return stalls_.load(std::memory_order_relaxed); }

 private:
  struct Watch {
    SupervisorSource source;
    std::uint64_t last_epoch = 0;
    std::int64_t stuck_ms = 0;    ///< eligible time since last_epoch changed
    bool flagged = false;         ///< current episode already reported
  };

  void run();

  const std::int64_t watchdog_ms_;
  const std::int64_t sample_ms_;
  std::vector<Watch> watches_;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> stalls_{0};
  std::thread thread_;
  bool running_ = false;
};

}  // namespace fusecu
