#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace fusecu {
namespace {

/// Collects finished spans for assertions.  Thread-safe like any sink.
class CollectingSink : public SpanSink {
 public:
  void on_span(const SpanRecord& span) override {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  std::vector<SpanRecord> spans() {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII sink installation so a failing assertion can't leak the sink into
/// the next test.
class SinkScope {
 public:
  explicit SinkScope(SpanSink* sink) : prev_(set_span_sink(sink)) {}
  ~SinkScope() { set_span_sink(prev_); }

 private:
  SpanSink* prev_;
};

TEST(Span, InertWithoutSink) {
  ASSERT_FALSE(span_recording_enabled());
  ScopedSpan span("noop");
  EXPECT_FALSE(span.recording());
  EXPECT_FALSE(current_span().valid());  // an inert span never becomes ambient
}

TEST(Span, TimedSpanObservesWithoutASink) {
  ASSERT_FALSE(span_recording_enabled());
  ASSERT_FALSE(FlightRecorder::global().armed());
  MetricsRegistry reg;
  Histogram& timing = reg.histogram("time/phase");
  {
    ScopedSpan span("phase", timing);
    EXPECT_FALSE(span.recording());
    EXPECT_FALSE(current_span().valid());
    EXPECT_GE(span.elapsed_seconds(), 0.0);
  }
  const HistogramSnapshot s = reg.histogram("time/phase").snapshot();
  EXPECT_EQ(s.count, 1);
  EXPECT_GE(s.sum, 0.0);
}

TEST(Span, TimedSpanRecordAndHistogramShareOneClock) {
  CollectingSink sink;
  SinkScope scope(&sink);
  std::vector<Histogram> timings(20);
  for (std::size_t i = 0; i < timings.size(); ++i) {
    ScopedSpan span("timed", timings[i]);
    ASSERT_TRUE(span.recording());
    std::this_thread::sleep_for(std::chrono::microseconds(50 * i));
  }
  const std::vector<SpanRecord> spans = sink.spans();
  ASSERT_EQ(spans.size(), timings.size());
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const HistogramSnapshot s = timings[i].snapshot();
    ASSERT_EQ(s.count, 1);
    // The record's microseconds are the same two clock reads, each
    // truncated to the span clock's resolution.
    EXPECT_LT(std::abs(static_cast<double>(spans[i].duration_us) - s.sum * 1e6), 1.0)
        << "span " << i << ": record " << spans[i].duration_us << " us, histogram " << s.sum
        << " s";
  }
}

TEST(Span, RootThenChildNesting) {
  CollectingSink sink;
  SinkScope scope(&sink);
  ASSERT_TRUE(span_recording_enabled());

  SpanContext root_ctx, child_ctx;
  {
    ScopedSpan root("request/matmul");
    ASSERT_TRUE(root.recording());
    root_ctx = root.context();
    EXPECT_EQ(current_span().span_id, root_ctx.span_id);
    {
      ScopedSpan child("cache_lookup");
      child.note("miss");
      child_ctx = child.context();
    }
    // Child closed: ambient is the root again.
    EXPECT_EQ(current_span().span_id, root_ctx.span_id);
  }
  EXPECT_FALSE(current_span().valid());

  const std::vector<SpanRecord> spans = sink.spans();
  ASSERT_EQ(spans.size(), 2u);  // children finish before parents
  EXPECT_EQ(spans[0].name, "cache_lookup");
  EXPECT_EQ(spans[0].detail, "miss");
  EXPECT_EQ(spans[1].name, "request/matmul");
  // Proper tree: same trace, child points at root, root is a trace root.
  EXPECT_EQ(spans[0].context.trace_id, spans[1].context.trace_id);
  EXPECT_EQ(spans[0].context.parent_span_id, spans[1].context.span_id);
  EXPECT_EQ(spans[1].context.parent_span_id, 0u);
  EXPECT_NE(spans[0].context.span_id, spans[1].context.span_id);
  EXPECT_EQ(child_ctx.span_id, spans[0].context.span_id);
}

TEST(Span, SeparateRootsGetSeparateTraces) {
  CollectingSink sink;
  SinkScope scope(&sink);
  { ScopedSpan a("request/matmul"); }
  { ScopedSpan b("request/matmul"); }
  const std::vector<SpanRecord> spans = sink.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].context.trace_id, spans[1].context.trace_id);
}

TEST(Span, ThreadsCarryIndependentAmbientSpans) {
  CollectingSink sink;
  SinkScope scope(&sink);
  ScopedSpan root("outer");
  SpanContext other_ambient;
  int other_thread = -1;
  std::thread([&] {
    other_ambient = current_span();  // ambient does not leak across threads
    ScopedSpan worker("worker");
    other_thread = obs_thread_index();
  }).join();
  EXPECT_FALSE(other_ambient.valid());
  EXPECT_NE(other_thread, obs_thread_index());
  const std::vector<SpanRecord> spans = sink.spans();
  ASSERT_EQ(spans.size(), 1u);  // only the worker span finished so far
  EXPECT_EQ(spans[0].context.parent_span_id, 0u);  // a fresh root over there
  EXPECT_EQ(spans[0].thread_index, other_thread);
}

TEST(Span, UniqueIdsUnderConcurrency) {
  CollectingSink sink;
  SinkScope scope(&sink);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 200; ++i) {
        ScopedSpan span("burst");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::map<std::uint64_t, int> seen;
  for (const SpanRecord& s : sink.spans()) ++seen[s.context.span_id];
  EXPECT_EQ(seen.size(), 800u);
  for (const auto& [id, count] : seen) {
    EXPECT_EQ(count, 1) << "duplicate span id " << id;
    EXPECT_NE(id, 0u);
  }
}

}  // namespace
}  // namespace fusecu
