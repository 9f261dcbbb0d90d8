#include "serve/admission.hpp"

#include <algorithm>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace fusecu {

namespace {

std::int64_t interval_for(std::int64_t target_delay_ms) {
  // CoDel uses interval ~= several RTTs; here the analogue is several
  // multiples of the target so one slow request cannot flip the state.
  return std::max<std::int64_t>(4 * target_delay_ms, 50);
}

}  // namespace

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config), interval_ms_(interval_for(config.target_delay_ms)) {}

std::int64_t AdmissionController::retry_after_ms() const {
  return std::clamp<std::int64_t>(2 * config_.target_delay_ms, 1, 1000);
}

void AdmissionController::record(std::int64_t delay_us, std::int64_t now_us) {
  if (!enabled()) return;
  FCU_HISTOGRAM("serve/queue_delay_us").observe(static_cast<double>(delay_us));

  const std::int64_t target_us = config_.target_delay_ms * 1000;
  const std::int64_t interval_us = interval_ms_ * 1000;

  bool entered = false;
  bool exited = false;
  std::int64_t standing_us = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!overloaded_.load(std::memory_order_relaxed)) {
      // Entry: CoDel's first-above confirmation timer.  Any below-target
      // dequeue proves the queue drained and disarms it; delays that stay
      // above the target for a whole confirmation span are a standing
      // queue.  Fixed windows would let the post-exit drain tail (near-zero
      // delays) pollute a window minimum and stall re-entry for up to two
      // intervals while an ongoing flood refills the queue — the timer
      // re-arms the moment delays cross the target again, and a recent exit
      // (within 16 intervals) shortens confirmation to interval/4 so an
      // oscillating overload is re-caught quickly.
      if (delay_us < target_us) {
        first_above_us_ = -1;
        return;
      }
      if (first_above_us_ < 0) {
        first_above_us_ = now_us;
        return;
      }
      // Gross violation: a delay at 2x the target is past any plausible
      // good burst, so confirm on this observation instead of waiting out
      // the span — every request admitted while we deliberate must still be
      // served, so deliberation time converts directly into served-tail
      // latency.  A false entry only sheds colds for one exit window.
      const bool gross = delay_us >= 2 * target_us;
      const bool recent_exit = last_exit_us_ >= 0 && now_us - last_exit_us_ < 16 * interval_us;
      const std::int64_t confirm_us = gross ? 0 : (recent_exit ? interval_us / 4 : interval_us);
      if (now_us - first_above_us_ < confirm_us) return;
      overloaded_.store(true, std::memory_order_relaxed);
      entered = true;
      standing_us = delay_us;
      first_above_us_ = -1;
      interval_start_us_ = now_us;  // open the exit-judgement window
      window_min_us_ = delay_us;
    } else {
      // Exit: the closed window's *minimum* must halve the target
      // (hysteresis), judged once per interval so one lucky dequeue
      // cannot flap the state off while the queue still stands.
      window_min_us_ = std::min(window_min_us_, delay_us);
      if (now_us - interval_start_us_ < interval_us) return;
      standing_us = window_min_us_;
      if (window_min_us_ < target_us / 2) {
        overloaded_.store(false, std::memory_order_relaxed);
        exited = true;
        last_exit_us_ = now_us;
        first_above_us_ = -1;
      }
      interval_start_us_ = now_us;
      window_min_us_ = delay_us;
    }
  }

  if (entered) {
    FCU_COUNTER("serve/brownout_entries").add(1);
    log_warn("serve", "brownout: standing queue delay above target, shedding cold requests",
             {{"min_delay_us", std::to_string(standing_us)},
              {"target_ms", std::to_string(config_.target_delay_ms)}});
  } else if (exited) {
    log_info("serve", "brownout cleared: standing queue delay recovered",
             {{"min_delay_us", std::to_string(standing_us)},
              {"target_ms", std::to_string(config_.target_delay_ms)}});
  }
}

}  // namespace fusecu
