#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

/// \file admission.hpp
/// CoDel-style adaptive admission control driven by measured queue delay.
///
/// The fixed `--queue-depth` shed answers "is the queue long?", which is the
/// wrong question under bursty load: a deep queue that drains fast is fine,
/// a shallow queue that drains slowly is not.  Following CoDel (Nichols &
/// Jacobson, CACM 2012) the controller watches *standing* queue delay —
/// delay that stays above the target with no fast dequeue in between —
/// because one below-target dequeue proves the queue fully drained, while a
/// burst that drains is invisible to it.
///
/// State machine (see DESIGN.md §7):
///
///        delay >= target continuously for a confirmation span
///        (one interval; interval/4 within 16 intervals of an exit;
///        immediately once delay reaches 2x target)
///   OK ────────────────────────────────────▶ BROWNOUT
///      ◀────────────────────────────────────
///        window min < target/2 at an interval edge (hysteresis)
///
/// Entry is CoDel's first-above timer rather than a fixed window: any
/// below-target dequeue disarms it, a recent exit shortens the
/// confirmation so an overload that outlives one shed wave is re-caught in
/// interval/4 instead of drifting for up to two windows while the queue
/// refills, and a *gross* delay (2x target with the timer armed) confirms
/// at once — admission is never revoked, so time spent deliberating is
/// served-tail latency for every request admitted meanwhile.
///
/// Only plan-cache misses are admitted to the queue — the reactor answers a
/// hit from the cache itself — so only misses are observed here and only
/// misses are shed.  In BROWNOUT the reactor sheds a miss unless none of
/// its own misses is in flight (that one is admitted: its dequeue is the
/// sample that lets BROWNOUT end), and every shed response carries a
/// `retry_after_ms` hint so well-behaved clients back off instead of
/// hammering.  The controller never revokes admission: a request that
/// entered the queue is always served or answered by the watchdog, never
/// shed retroactively.
///
/// Threading.  `record()` is called by every pool worker at dequeue;
/// `overloaded()` is a single relaxed atomic load on the reactor hot path.
/// The window state behind `record()` is mutex-guarded — at most one
/// observation per served request, far off the zero-alloc reactor loop.
///
/// Determinism.  The transition depends only on observed delays and the
/// span clock; unit tests drive it with synthetic timestamps
/// (tests/admission_test.cpp) so the state machine is exercised without
/// sleeping.

namespace fusecu {

struct AdmissionConfig {
  /// Target standing queue delay in ms; 0 disables adaptive admission.
  std::int64_t target_delay_ms = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config);

  /// Adaptive admission armed (target > 0)?
  bool enabled() const { return config_.target_delay_ms > 0; }

  std::int64_t target_delay_ms() const { return config_.target_delay_ms; }

  /// One request's queue delay, observed at dequeue.  \p now_us is the span
  /// clock at dequeue (tests pass synthetic values).  Updates the
  /// `serve/queue_delay_us` histogram and the brownout state machine.
  void record(std::int64_t delay_us, std::int64_t now_us);

  /// True while the controller is in BROWNOUT — the reactor sheds cache
  /// misses.  A single relaxed load; safe on the hot path.
  bool overloaded() const { return overloaded_.load(std::memory_order_relaxed); }

  /// The backoff hint attached to shed responses: 2x the target delay,
  /// clamped to [1, 1000] ms.  Deterministic per configuration.
  std::int64_t retry_after_ms() const;

  /// Observation interval: max(4 x target, 50) ms.  Entry confirmation
  /// span; the exit window minimum is evaluated once per interval.
  std::int64_t interval_ms() const { return interval_ms_; }

 private:
  const AdmissionConfig config_;
  const std::int64_t interval_ms_;

  std::atomic<bool> overloaded_{false};

  std::mutex mu_;
  // State guarded by mu_.  Entry (while OK): first_above_us_ is when delays
  // last crossed the target with no below-target dequeue since (-1 = timer
  // disarmed); last_exit_us_ arms the shortened re-entry confirmation.
  // Exit (while BROWNOUT): the minimum delay seen since the judgement
  // window opened, and when it opened.
  std::int64_t first_above_us_ = -1;
  std::int64_t last_exit_us_ = -1;
  std::int64_t interval_start_us_ = -1;
  std::int64_t window_min_us_ = 0;
};

}  // namespace fusecu
