#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

/// \file metrics.hpp
/// Process-wide metrics substrate: counters, gauges and mergeable
/// histograms, collected in a named registry and exported as JSON or CSV.
///
/// The paper's claims are quantitative (memory accesses saved per NRA
/// regime, optimizer wall-time orders of magnitude below search), so every
/// layer of the library — the principle constructors, the fusion planners,
/// the searching baselines and the simulators — reports what it did through
/// this registry instead of ad-hoc printf timing.  Tools opt in via
/// `--metrics-out` (see obs/obs_session.hpp).  Each instrumentation site
/// resolves its metrics by name once — FCU_COUNTER and friends, a
/// constructor member, or a CounterFamily slot — so instrumentation left
/// enabled costs one relaxed atomic or one short critical section per event.
///
/// Histograms use fixed geometric buckets (8 per octave, ~9% relative
/// resolution) so two histograms — e.g. from sharded evaluation runs — merge
/// exactly bucket-by-bucket while min/max/sum/count stay exact.

namespace fusecu {

/// Monotonically increasing event count.  Thread-safe.
class Counter {
 public:
  void add(std::int64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins instantaneous value.  Thread-safe.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Summary statistics of a histogram at one point in time.
struct HistogramSnapshot {
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;  ///< p99.9 — the tail the serving SLO cares about

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

/// Geometric-bucket histogram with exact count/sum/min/max and quantile
/// estimates accurate to one bucket (~9% relative).  Thread-safe; mergeable.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;    ///< buckets per power of two
  static constexpr int kMinExponent = -64; ///< smallest tracked octave (2^-64)
  static constexpr int kMaxExponent = 64;  ///< largest tracked octave (2^64)
  /// +1 underflow bucket for values <= 2^kMinExponent (incl. zero/negative).
  static constexpr int kNumBuckets = (kMaxExponent - kMinExponent) * kSubBuckets + 1;

  void observe(double v);
  void merge(const Histogram& other);

  std::int64_t count() const;
  HistogramSnapshot snapshot() const;
  /// Quantile estimate for q in [0, 1]; 0 when empty.
  double quantile(double q) const;

 private:
  static int bucket_index(double v);
  static double bucket_upper_bound(int index);
  double quantile_locked(double q) const;

  mutable std::mutex mu_;
  std::array<std::int64_t, kNumBuckets> buckets_{};
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named metric store.  `global()` is the process-wide instance every
/// instrumented component reports into; tests can build private instances.
/// Metrics are never removed: a returned reference stays valid for the
/// registry's lifetime (the global one is never destroyed), so hot paths
/// resolve a name once and keep the reference.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  std::vector<std::string> counter_names() const;
  std::vector<std::string> gauge_names() const;
  std::vector<std::string> histogram_names() const;

  /// One JSON object: {"exported_at":"RFC3339","counters":{...},
  /// "gauges":{...},"histograms":{...}}, appended to \p out.  \p exported_at
  /// overrides the wall-clock stamp (tests pin it for byte-stable artifacts).
  void append_json(std::string& out, std::optional<std::time_t> exported_at = std::nullopt) const;
  /// append_json() plus a newline, written to \p os at once.
  void write_json(std::ostream& os, std::optional<std::time_t> exported_at = std::nullopt) const;
  /// Flat CSV: kind,name,count,sum,min,max,mean,p50,p95,p99,p99.9 (value in
  /// `sum` for counters/gauges), preceded by a "# exported_at <RFC3339>"
  /// header line.
  void write_csv(std::ostream& os, std::optional<std::time_t> exported_at = std::nullopt) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The global counter, gauge or histogram named \p name (a string
/// literal), resolved on this call site's first pass and then held in a
/// function-local static, so a per-call site pays no name lookup:
///
///   FCU_COUNTER("fusion/plan_chain/calls").add();
#define FCU_COUNTER(name) FCU_GLOBAL_METRIC_(counter, name)
#define FCU_GAUGE(name) FCU_GLOBAL_METRIC_(gauge, name)
#define FCU_HISTOGRAM(name) FCU_GLOBAL_METRIC_(histogram, name)
#define FCU_GLOBAL_METRIC_(kind, name)                                    \
  ([]() -> auto& {                                                        \
    static auto& metric = ::fusecu::MetricsRegistry::global().kind(name); \
    return metric;                                                        \
  }())

/// Global counters `<prefix><suffix>` for a value drawn from a small fixed
/// set (one per buffer class, say), indexed by that value.  Each member is
/// resolved on its first use, so an export lists only the members that
/// fired.  Thread-safe: racing first uses resolve the same counter.
template <std::size_t N>
class CounterFamily {
 public:
  explicit CounterFamily(const char* prefix) : prefix_(prefix) {}

  /// Member \p index, named with \p suffix (the same suffix every time).
  Counter& at(std::size_t index, const char* suffix) {
    Counter* c = slots_[index].load(std::memory_order_acquire);
    if (c == nullptr) {
      c = &MetricsRegistry::global().counter(prefix_ + suffix);
      slots_[index].store(c, std::memory_order_release);
    }
    return *c;
  }

 private:
  std::string prefix_;
  std::array<std::atomic<Counter*>, N> slots_{};
};

}  // namespace fusecu
