#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "common/json_parse.hpp"
#include "obs/metrics.hpp"

namespace fusecu {
namespace {

TEST(Counter, AccumulatesAcrossThreads) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 1000; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 4000);
}

TEST(Histogram, ExactSummaryStatistics) {
  Histogram h;
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Histogram, QuantilesWithinBucketResolution) {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.observe(static_cast<double>(v));
  // Geometric buckets hold ~9% relative error; allow 10%.
  EXPECT_NEAR(h.quantile(0.50), 500.0, 50.0);
  EXPECT_NEAR(h.quantile(0.95), 950.0, 95.0);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 99.0);
  // Extremes are exact: clamped to observed min/max.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(Histogram, SingleValueQuantilesAreExact) {
  Histogram h;
  h.observe(42.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(h.snapshot().p99, 42.0);
}

TEST(Histogram, HandlesZeroNegativeAndEmpty) {
  Histogram empty;
  EXPECT_EQ(empty.count(), 0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  Histogram h;
  h.observe(0.0);
  h.observe(-3.0);
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 2);
  EXPECT_DOUBLE_EQ(s.min, -3.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  // Underflow-bucket representatives clamp into the observed range.
  EXPECT_LE(h.quantile(0.5), 0.0);
  EXPECT_GE(h.quantile(0.5), -3.0);
}

TEST(Histogram, MergeMatchesCombinedObservation) {
  Histogram a, b, combined;
  for (int v = 1; v <= 500; ++v) {
    a.observe(static_cast<double>(v));
    combined.observe(static_cast<double>(v));
  }
  for (int v = 501; v <= 1000; ++v) {
    b.observe(static_cast<double>(v));
    combined.observe(static_cast<double>(v));
  }
  a.merge(b);
  HistogramSnapshot merged = a.snapshot();
  HistogramSnapshot direct = combined.snapshot();
  EXPECT_EQ(merged.count, direct.count);
  EXPECT_DOUBLE_EQ(merged.sum, direct.sum);
  EXPECT_DOUBLE_EQ(merged.min, direct.min);
  EXPECT_DOUBLE_EQ(merged.max, direct.max);
  // Bucket-wise merge is exact, so quantiles agree exactly too.
  EXPECT_DOUBLE_EQ(merged.p50, direct.p50);
  EXPECT_DOUBLE_EQ(merged.p95, direct.p95);
  EXPECT_DOUBLE_EQ(merged.p99, direct.p99);
}

TEST(Histogram, MergeIntoEmptyAndFromEmpty) {
  Histogram a, b;
  b.observe(7.0);
  a.merge(b);  // into empty
  EXPECT_EQ(a.count(), 1);
  EXPECT_DOUBLE_EQ(a.snapshot().min, 7.0);
  Histogram none;
  a.merge(none);  // from empty: no-op
  EXPECT_EQ(a.count(), 1);
}

TEST(MetricsRegistry, ReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("x");
  c1.add(5);
  EXPECT_EQ(&reg.counter("x"), &c1);
  EXPECT_EQ(reg.counter("x").value(), 5);
  reg.histogram("h").observe(1.0);
  EXPECT_EQ(reg.counter_names(), std::vector<std::string>{"x"});
  EXPECT_EQ(reg.histogram_names(), std::vector<std::string>{"h"});
}

TEST(MetricsRegistry, JsonExportParsesAndRoundTrips) {
  MetricsRegistry reg;
  reg.counter("planner/calls").add(3);
  reg.gauge("search/evals_per_sec").set(123.5);
  Histogram& h = reg.histogram("time/optimize \"quoted\\path\"");
  h.observe(0.25);
  h.observe(0.5);

  std::ostringstream os;
  reg.write_json(os);
  JsonValuePtr root = parse_json(os.str());

  EXPECT_DOUBLE_EQ(root->get("counters")->get("planner/calls")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(root->get("gauges")->get("search/evals_per_sec")->as_number(), 123.5);
  JsonValuePtr hist = root->get("histograms")->get("time/optimize \"quoted\\path\"");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->get("count")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(hist->get("sum")->as_number(), 0.75);
  EXPECT_DOUBLE_EQ(hist->get("min")->as_number(), 0.25);
  EXPECT_DOUBLE_EQ(hist->get("max")->as_number(), 0.5);
}

TEST(MetricsRegistry, CsvExportHasHeaderAndRows) {
  MetricsRegistry reg;
  reg.counter("c").add(2);
  reg.histogram("h").observe(4.0);
  std::ostringstream os;
  reg.write_csv(os, /*exported_at=*/static_cast<std::time_t>(0));
  const std::string csv = os.str();
  // Pinned timestamp makes the artifact byte-stable.
  EXPECT_EQ(csv.rfind("# exported_at 1970-01-01T00:00:00Z\n", 0), 0u);
  EXPECT_NE(csv.find("kind,name,count,sum,min,max,mean,p50,p95,p99,p99.9\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,c,1,2"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,1,4"), std::string::npos);
}

TEST(MetricsRegistry, JsonExportCarriesTimestampAndTailQuantile) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  for (int v = 1; v <= 1000; ++v) h.observe(static_cast<double>(v));
  std::ostringstream os;
  reg.write_json(os, /*exported_at=*/static_cast<std::time_t>(86400));
  JsonValuePtr root = parse_json(os.str());
  EXPECT_EQ(root->get("exported_at")->as_string(), "1970-01-02T00:00:00Z");
  JsonValuePtr hist = root->get("histograms")->get("lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->get("sum")->as_number(), 500500.0);
  EXPECT_NEAR(hist->get("p99.9")->as_number(), 999.0, 100.0);
}

}  // namespace
}  // namespace fusecu
