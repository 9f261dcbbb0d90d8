#include <gtest/gtest.h>

#include <sstream>

#include "common/json_parse.hpp"
#include "sim/timeline.hpp"
#include "obs/trace.hpp"

namespace fusecu {
namespace {

TEST(TraceRecorder, RecordsAndBounds) {
  TraceRecorder rec(3);
  for (int i = 0; i < 5; ++i) {
    rec.record({std::string("e").append(std::to_string(i)), "cat", 0, static_cast<double>(i), 1.0});
  }
  EXPECT_EQ(rec.events().size(), 3u);
  EXPECT_EQ(rec.dropped(), 2u);
  EXPECT_EQ(rec.events()[0].name, "e0");
}

TEST(ChromeTrace, EmitsCompleteEvents) {
  TraceRecorder rec;
  rec.record({"load#0", "dma", 0, 0.0, 10.0});
  rec.record({"pass#0", "compute", 1, 10.0, 5.5});
  std::ostringstream os;
  write_chrome_trace(os, rec);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"load#0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5.5"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
}

TEST(TraceRecorder, CounterSamplesAreBoundedSeparately) {
  TraceRecorder rec(2);
  for (int i = 0; i < 5; ++i) {
    rec.record_counter("traffic", static_cast<double>(i), static_cast<double>(10 * i));
  }
  EXPECT_EQ(rec.counter_samples().size(), 2u);
  EXPECT_EQ(rec.dropped_counters(), 3u);
  EXPECT_FALSE(rec.empty());
}

TEST(ChromeTrace, EscapesSpecialCharactersInNames) {
  TraceRecorder rec;
  rec.set_track_name(0, "engine \"zero\"\\unit");
  rec.record({"load \"q\"\\path\n", "dma\t", 0, 0.0, 1.0});
  rec.record_counter("counter \"c\"", 1.0, 2.0);
  std::ostringstream os;
  write_chrome_trace(os, rec);
  // The emitted document must survive a real JSON parse with the original
  // strings intact.
  JsonValuePtr root = parse_json(os.str());
  ASSERT_TRUE(root->is_array());
  bool saw_event = false, saw_counter = false, saw_meta = false;
  for (const JsonValuePtr& e : root->as_array()) {
    const std::string name = e->get("name")->as_string();
    if (name == "load \"q\"\\path\n") {
      EXPECT_EQ(e->get("cat")->as_string(), "dma\t");
      saw_event = true;
    }
    if (name == "counter \"c\"") saw_counter = true;
    if (name == "thread_name") {
      EXPECT_EQ(e->get("args")->get("name")->as_string(), "engine \"zero\"\\unit");
      saw_meta = true;
    }
  }
  EXPECT_TRUE(saw_event);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_meta);
}

TEST(ChromeTrace, EmitsCounterEventsAndTrackMetadata) {
  TraceRecorder rec;
  rec.set_track_name(0, "DMA");
  rec.record_counter("traffic_elements", 5.0, 128.0);
  rec.record_counter("traffic_elements", 10.0, 256.0);
  std::ostringstream os;
  write_chrome_trace(os, rec);
  JsonValuePtr root = parse_json(os.str());
  int counter_events = 0;
  for (const JsonValuePtr& e : root->as_array()) {
    if (e->get("ph")->as_string() != "C") continue;
    ++counter_events;
    EXPECT_EQ(e->get("name")->as_string(), "traffic_elements");
    EXPECT_TRUE(e->get("args")->has("value"));
  }
  EXPECT_EQ(counter_events, 2);
}

TEST(ChromeTrace, TruncationIsVisibleInMetadata) {
  TraceRecorder rec(1);
  rec.record({"e0", "cat", 0, 0.0, 1.0});
  rec.record({"e1", "cat", 0, 1.0, 1.0});
  rec.record_counter("c", 0.0, 1.0);
  rec.record_counter("c", 1.0, 2.0);
  rec.record_counter("c", 2.0, 3.0);
  std::ostringstream os;
  write_chrome_trace(os, rec);
  JsonValuePtr root = parse_json(os.str());
  bool saw_truncated = false;
  for (const JsonValuePtr& e : root->as_array()) {
    if (e->get("name")->as_string() != "trace_truncated") continue;
    saw_truncated = true;
    EXPECT_EQ(e->get("ph")->as_string(), "M");
    EXPECT_DOUBLE_EQ(e->get("args")->get("dropped_events")->as_number(), 1.0);
    EXPECT_DOUBLE_EQ(e->get("args")->get("dropped_counter_samples")->as_number(), 2.0);
  }
  EXPECT_TRUE(saw_truncated);
}

TEST(ChromeTrace, NoTruncationMetadataWhenNothingDropped) {
  TraceRecorder rec;
  rec.record({"e0", "cat", 0, 0.0, 1.0});
  std::ostringstream os;
  write_chrome_trace(os, rec);
  EXPECT_EQ(os.str().find("trace_truncated"), std::string::npos);
}

TEST(ChromeTrace, TimelineEventsAreConsistent) {
  TensorOp op = TensorOp::matmul("tl", 64, 32, 64);
  Dataflow df = make_dataflow(op, {"M", "L", "K"}, {{"M", 16}, {"L", 16}, {"K", 16}});
  TraceRecorder rec;
  TimelineResult r = simulate_timeline(op, df, make_fusecu(), 1.0, &rec);

  // One compute event per iteration; loads only when tiles changed.
  std::size_t compute_events = 0;
  double last_end = 0.0;
  for (const TraceEvent& e : rec.events()) {
    EXPECT_GE(e.start_cycle, 0.0);
    EXPECT_GE(e.duration_cycles, 0.0);
    if (e.category == "compute") {
      // Compute events are serialized on the array.
      EXPECT_GE(e.start_cycle + 1e-9, last_end);
      last_end = e.start_cycle + e.duration_cycles;
      ++compute_events;
    }
  }
  EXPECT_EQ(static_cast<Index>(compute_events), r.iterations);
  EXPECT_NEAR(last_end, static_cast<double>(r.cycles), 1.0);
  EXPECT_EQ(rec.dropped(), 0u);
}

}  // namespace
}  // namespace fusecu
