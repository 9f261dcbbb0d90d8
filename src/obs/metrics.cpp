#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json_writer.hpp"
#include "common/timeutil.hpp"

namespace fusecu {

int Histogram::bucket_index(double v) {
  if (!(v > 0.0) || !std::isfinite(v)) return 0;  // underflow bucket
  const double log2v = std::log2(v);
  const double scaled = (log2v - kMinExponent) * kSubBuckets;
  if (scaled <= 0.0) return 0;
  const int index = 1 + static_cast<int>(scaled);
  return std::min(index, kNumBuckets - 1);
}

double Histogram::bucket_upper_bound(int index) {
  if (index <= 0) return std::exp2(static_cast<double>(kMinExponent));
  return std::exp2(kMinExponent + static_cast<double>(index) / kSubBuckets);
}

void Histogram::observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  buckets_[static_cast<std::size_t>(bucket_index(v))] += 1;
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void Histogram::merge(const Histogram& other) {
  // Copy the source under its own lock first so self-merge and lock order
  // are non-issues.
  std::array<std::int64_t, kNumBuckets> src_buckets;
  std::int64_t src_count;
  double src_sum, src_min, src_max;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    src_buckets = other.buckets_;
    src_count = other.count_;
    src_sum = other.sum_;
    src_min = other.min_;
    src_max = other.max_;
  }
  if (src_count == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < kNumBuckets; ++i) buckets_[static_cast<std::size_t>(i)] += src_buckets[static_cast<std::size_t>(i)];
  if (count_ == 0) {
    min_ = src_min;
    max_ = src_max;
  } else {
    min_ = std::min(min_, src_min);
    max_ = std::max(max_, src_max);
  }
  count_ += src_count;
  sum_ += src_sum;
}

std::int64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::quantile_locked(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  // Rank of the target observation (1-based, nearest-rank definition).
  const std::int64_t rank =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count_))));
  std::int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)];
    if (seen >= rank) {
      // Clamp the bucket representative into the exact observed range.
      return std::clamp(bucket_upper_bound(i), min_, max_);
    }
  }
  return max_;
}

double Histogram::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  return quantile_locked(q);
}

HistogramSnapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramSnapshot s;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.p50 = quantile_locked(0.50);
  s.p95 = quantile_locked(0.95);
  s.p99 = quantile_locked(0.99);
  s.p999 = quantile_locked(0.999);
  return s;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never destroyed
  return *instance;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<std::string> MetricsRegistry::counter_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, _] : counters_) out.push_back(name);
  return out;
}

std::vector<std::string> MetricsRegistry::gauge_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, _] : gauges_) out.push_back(name);
  return out;
}

std::vector<std::string> MetricsRegistry::histogram_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, _] : histograms_) out.push_back(name);
  return out;
}

namespace {

/// JSON cannot carry non-finite numbers; clamp degenerate summaries to 0.
double finite_or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

void write_histogram_fields(JsonWriter& w, const HistogramSnapshot& s) {
  w.field("count", static_cast<std::int64_t>(s.count));
  w.field("sum", finite_or_zero(s.sum));
  w.field("min", finite_or_zero(s.min));
  w.field("max", finite_or_zero(s.max));
  w.field("mean", finite_or_zero(s.mean()));
  w.field("p50", finite_or_zero(s.p50));
  w.field("p95", finite_or_zero(s.p95));
  w.field("p99", finite_or_zero(s.p99));
  w.field("p99.9", finite_or_zero(s.p999));
}

}  // namespace

void MetricsRegistry::append_json(std::string& out,
                                  std::optional<std::time_t> exported_at) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w(out);
  w.begin_object();
  w.field("exported_at", rfc3339_utc(exported_at.value_or(std::time(nullptr))));
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) w.field(name, static_cast<std::int64_t>(c->value()));
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) w.field(name, finite_or_zero(g->value()));
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    write_histogram_fields(w, h->snapshot());
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

void MetricsRegistry::write_json(std::ostream& os, std::optional<std::time_t> exported_at) const {
  std::string out;
  append_json(out, exported_at);
  out.push_back('\n');
  os << out;
}

void MetricsRegistry::write_csv(std::ostream& os, std::optional<std::time_t> exported_at) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "# exported_at " << rfc3339_utc(exported_at.value_or(std::time(nullptr))) << "\n";
  os << "kind,name,count,sum,min,max,mean,p50,p95,p99,p99.9\n";
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", finite_or_zero(v));
    return std::string(buf);
  };
  for (const auto& [name, c] : counters_) {
    os << "counter," << name << ",1," << c->value() << ",,,,,,,\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << "gauge," << name << ",1," << num(g->value()) << ",,,,,,,\n";
  }
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h->snapshot();
    os << "histogram," << name << "," << s.count << "," << num(s.sum) << "," << num(s.min) << ","
       << num(s.max) << "," << num(s.mean()) << "," << num(s.p50) << "," << num(s.p95) << ","
       << num(s.p99) << "," << num(s.p999) << "\n";
  }
}

}  // namespace fusecu
