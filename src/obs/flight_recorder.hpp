#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/span.hpp"

/// \file flight_recorder.hpp
/// Crash-safe flight recorder: lock-free per-thread ring buffers retaining
/// the last N span and log events, dumpable
///
///   * as JSON (with a full metrics snapshot) by `fusecu_check` when a
///     conformance trial fails — so every shrunk repro ships with the
///     telemetry of the run that produced it; and
///   * over a pre-opened fd by a fatal-signal handler — so a crashed or
///     wedged worker leaves its last moments behind.
///
/// Concurrency: each thread writes only its own ring (selected by
/// obs_thread_index()), so recording is wait-free and unsynchronized; the
/// write index is a relaxed atomic and records carry a global sequence
/// number so a dump interleaves events from all threads in order.  Reading
/// a ring while its owner is mid-crash can observe a torn record; dumps are
/// diagnostics, not ground truth, and a torn tail record is acceptable.
///
/// Async-signal-safety of the crash path, by construction:
///
///   * the output fd is opened when the handler is installed (no open(2)
///     in the handler);
///   * the rings and the metrics index are allocated when the recorder is
///     armed (no allocation in the handler);
///   * formatting uses a local integer formatter into a stack buffer and
///     write(2) only (no stdio, no locks);
///   * the metrics index holds direct pointers to registry counters and
///     gauges (relaxed atomics), captured when armed; the registry never
///     removes a metric, so the pointers stay valid for the process
///     lifetime.  Histograms are mutex-guarded and therefore excluded from
///     the signal path (the JSON dump includes them).
///
/// Arming also tells the Logger to mirror kInfo+ lines into the rings, so
/// a dump carries log context even when no `--log-out` sink is configured.

namespace fusecu {

/// One retained event, fixed-size so recording never allocates.
struct FlightEvent {
  static constexpr std::size_t kNameCap = 48;
  static constexpr std::size_t kDetailCap = 112;

  std::uint64_t seq = 0;  ///< global order across threads (0 = empty slot)
  std::int64_t t_us = 0;  ///< span start / log timestamp (span clock)
  std::int64_t duration_us = 0;  ///< spans only
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint8_t kind = 0;   ///< 0 = span, 1 = log
  std::uint8_t level = 0;  ///< logs: LogLevel as int
  std::uint16_t thread = 0;
  char name[kNameCap] = {};      ///< span name / log component (truncated)
  char detail[kDetailCap] = {};  ///< span detail / log message (truncated)
};

class FlightRecorder {
 public:
  static constexpr int kMaxThreads = 64;

  static FlightRecorder& global();

  /// Allocate the rings (\p events_per_thread slots per thread, rounded up
  /// to 16) and start retaining events.  Idempotent; the ring capacity is
  /// fixed by the first arm() — the rings are never freed or reallocated,
  /// so recording threads can race arm()/disarm() safely.
  void arm(std::size_t events_per_thread = 256);
  void disarm();
  bool armed() const { return armed_.load(std::memory_order_acquire); }
  std::size_t events_per_thread() const { return ring_capacity_; }

  /// Retain one finished span (called by the span layer when armed).
  void record_span(const SpanRecord& span);
  /// Retain one log line (called by the Logger when armed).
  void record_log(int level, const char* component, const std::string& message, SpanContext span,
                  std::int64_t ts_us);

  /// Total events ever recorded and how many were overwritten (retention
  /// window overflow), across all threads.
  std::uint64_t recorded() const;
  std::uint64_t overwritten() const;

  /// Full JSON dump: {"exported_at":..., "events":[...], "metrics":{...}}.
  /// Events are merged across threads in sequence order.  NOT async-signal
  /// safe (allocates, takes the registry lock for the metrics snapshot).
  void dump_json(std::ostream& os) const;

  /// Async-signal-safe dump to \p fd: one text line per event plus the
  /// captured counter/gauge values.  Uses write(2) only.
  void dump_signal_safe(int fd) const;

  /// Re-capture the counter/gauge pointer index used by the signal path
  /// (called by arm(); call again after registering new metrics that the
  /// crash dump should include).
  void refresh_metrics_index();

  /// Install a fatal-signal handler (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL)
  /// that dumps to \p path via a fd opened *now*.  Arms the recorder if it
  /// is not armed yet.  Returns false when the file cannot be opened.
  /// Only the first installation wins; later calls re-point the fd.
  bool install_crash_handler(const std::string& path);
  /// The pre-opened crash-dump fd (-1 when no handler is installed) —
  /// exposed so tests can assert the handler has nothing left to open.
  int crash_fd() const;

 private:
  struct ThreadRing {
    std::atomic<std::uint64_t> head{0};  ///< next slot ordinal (monotonic)
    std::vector<FlightEvent> slots;
  };

  FlightEvent* claim_slot(int thread_index, std::uint64_t* seq_out);
  void refresh_metrics_index_locked();

  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> next_seq_{1};
  std::size_t ring_capacity_ = 0;
  std::unique_ptr<ThreadRing[]> rings_;  ///< kMaxThreads entries when armed
  mutable std::mutex arm_mu_;            ///< guards arm/disarm/index rebuild

  /// Signal-path metrics index: raw pointers captured at arm time.
  struct MetricsIndex {
    std::vector<std::pair<std::string, const void*>> counters;  ///< Counter*
    std::vector<std::pair<std::string, const void*>> gauges;    ///< Gauge*
  };
  std::shared_ptr<const MetricsIndex> metrics_index_;
  std::atomic<const MetricsIndex*> metrics_index_raw_{nullptr};
};

}  // namespace fusecu
