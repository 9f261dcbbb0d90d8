#include "serve/stats_reporter.hpp"

#include <ostream>

#include "obs/metrics.hpp"
#include "serve/plan_service.hpp"

namespace fusecu {

StatsReporter::StatsReporter(PlanService& service, double interval_s, std::ostream& os)
    : service_(service),
      interval_s_(interval_s),
      os_(os),
      requests_(MetricsRegistry::global().counter("serve/requests")),
      request_errors_(MetricsRegistry::global().counter("serve/request_errors")),
      responses_(MetricsRegistry::global().counter("net/responses")),
      shed_(MetricsRegistry::global().counter("net/shed")),
      latency_matmul_us_(MetricsRegistry::global().histogram("serve/latency_us/matmul")),
      latency_fused_us_(MetricsRegistry::global().histogram("serve/latency_us/fused_pair")) {
  prev_requests_ = requests_.value();
  prev_errors_ = request_errors_.value();
  prev_responses_ = responses_.value();
  prev_shed_ = shed_.value();
  prev_cache_ = service_.stats().combined();
  period_start_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { run(); });
}

StatsReporter::~StatsReporter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // The window between the last tick and shutdown would otherwise vanish;
  // flush it as one last line (skipped when it saw no traffic).
  emit(/*only_if_active=*/true);
}

void StatsReporter::run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, std::chrono::duration<double>(interval_s_),
                       [this] { return stop_; })) {
    emit(/*only_if_active=*/false);
  }
}

void StatsReporter::emit(bool only_if_active) {
  std::lock_guard<std::mutex> emit_lock(emit_mu_);
  const std::int64_t now_requests = requests_.value();
  const std::int64_t now_errors = request_errors_.value();
  const CacheStats now_cache = service_.stats().combined();
  const auto now = std::chrono::steady_clock::now();
  const double elapsed_s =
      std::chrono::duration<double>(now - period_start_).count();
  if (only_if_active &&
      now_requests == prev_requests_ && now_errors == prev_errors_) {
    return;
  }
  const double qps =
      elapsed_s > 0.0 ? static_cast<double>(now_requests - prev_requests_) / elapsed_s : 0.0;
  const std::int64_t lookups =
      (now_cache.hits - prev_cache_.hits) + (now_cache.misses - prev_cache_.misses);
  const double hit_rate =
      lookups > 0 ? static_cast<double>(now_cache.hits - prev_cache_.hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  // Shed rate over the period: sheds / all responses written (served +
  // shed), from the TCP layer's counters — 0.0 on the stdin path, where
  // nothing is ever shed.
  const std::int64_t d_responses = responses_.value() - prev_responses_;
  const std::int64_t now_shed = shed_.value();
  const std::int64_t d_shed = now_shed - prev_shed_;
  const double shed_rate =
      d_responses > 0 ? static_cast<double>(d_shed) / static_cast<double>(d_responses) : 0.0;
  Histogram merged;
  merged.merge(latency_matmul_us_);
  merged.merge(latency_fused_us_);
  const HistogramSnapshot lat = merged.snapshot();
  os_ << "stats: qps=" << qps << " hit_rate=" << hit_rate << " shed_rate=" << shed_rate
      << " p50_us=" << lat.p50 << " p95_us=" << lat.p95 << " p99_us=" << lat.p99
      << " requests=" << now_requests
      << " errors=" << now_errors << " entries=" << now_cache.entries << "\n"
      << std::flush;
  prev_requests_ = now_requests;
  prev_errors_ = now_errors;
  prev_responses_ += d_responses;
  prev_shed_ = now_shed;
  prev_cache_ = now_cache;
  period_start_ = now;
}

}  // namespace fusecu
