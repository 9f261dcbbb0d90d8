#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <thread>

#include "serve/plan_cache.hpp"

/// \file stats_reporter.hpp
/// Background periodic stats line for the serving front-ends (stdin and
/// TCP), one line per period:
///
///   stats: qps=120.0 hit_rate=0.83 shed_rate=0 p50_us=42 p95_us=310
///          p99_us=900 requests=1200 errors=0 entries=57
///
/// qps / hit_rate / shed_rate are deltas over the period (measured wall
/// time, so a late-firing tick does not inflate qps; shed_rate is
/// sheds over all TCP responses written, 0 on the stdin path); the latency
/// percentiles come from merging the per-class request histograms
/// (Histogram::merge is exact bucket-by-bucket), so they are cumulative
/// over the process lifetime.
///
/// Shutdown flushes the tail: the destructor emits the final partial
/// period as one last stats line whenever that window saw any requests or
/// errors, so short runs (or the burst between the last tick and exit) are
/// reported instead of silently dropped.  An idle tail emits nothing.
///
/// Concurrency.  The *producers* may be many — every reactor shard bumps
/// the global counters (atomics), and one stats
/// line aggregates them all.  The *writer* is single: only the ticker
/// thread and the destructor (strictly after joining the ticker) call
/// emit().  That single-writer rule is what keeps the prev_* delta state
/// and the output stream race-free; it is enforced with emit_mu_ rather
/// than assumed, so a future caller that breaks the rule serializes
/// instead of corrupting the deltas or interleaving lines.

namespace fusecu {

class Counter;
class Histogram;
class PlanService;

class StatsReporter {
 public:
  StatsReporter(PlanService& service, double interval_s, std::ostream& os);
  /// Stops the ticker and flushes the final partial period.
  ~StatsReporter();

  StatsReporter(const StatsReporter&) = delete;
  StatsReporter& operator=(const StatsReporter&) = delete;

 private:
  void run();
  /// Emit one stats line covering [last period end, now); updates the
  /// deltas.  When \p only_if_active, an all-quiet window writes nothing
  /// (the destructor's final flush).
  void emit(bool only_if_active);

  PlanService& service_;
  double interval_s_;
  std::ostream& os_;

  /// The global metrics each line reads, resolved once.
  Counter& requests_;
  Counter& request_errors_;
  Counter& responses_;  ///< net/responses
  Counter& shed_;       ///< net/shed
  Histogram& latency_matmul_us_;
  Histogram& latency_fused_us_;

  /// Serializes emit() (see the single-writer rule above); guards the
  /// prev_* deltas, period_start_ and the output stream.
  std::mutex emit_mu_;
  std::int64_t prev_requests_ = 0;
  std::int64_t prev_errors_ = 0;
  std::int64_t prev_responses_ = 0;  ///< net/responses at the period start
  std::int64_t prev_shed_ = 0;       ///< net/shed at the period start
  CacheStats prev_cache_;
  std::chrono::steady_clock::time_point period_start_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace fusecu
