#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "common/json_writer.hpp"

namespace fusecu {

namespace {

std::string hex_id(std::uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, id);
  return std::string(buf);
}

}  // namespace

TraceRecorder::TraceRecorder(std::size_t capacity) : capacity_(capacity) {
  events_.reserve(std::min<std::size_t>(capacity, 4096));
}

void TraceRecorder::record(TraceEvent event) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void TraceRecorder::record_counter(CounterSample sample) {
  if (counter_samples_.size() >= capacity_) {
    ++dropped_counters_;
    return;
  }
  counter_samples_.push_back(std::move(sample));
}

void TraceRecorder::record_span(SpanRecord span) {
  if (spans_.size() >= capacity_) {
    ++dropped_spans_;
    return;
  }
  spans_.push_back(std::move(span));
}

void TraceRecorder::set_track_name(Index track, std::string name) {
  track_names_[track] = std::move(name);
}

void write_chrome_trace(std::ostream& os, const TraceRecorder& recorder) {
  // A full evaluation trace runs to tens of MB, so the rendered text is
  // handed to the stream in chunks of about kChunkBytes, each written once.
  constexpr std::size_t kChunkBytes = 1 << 20;
  std::string out;
  out.reserve(kChunkBytes + 4096);
  const auto spill = [&] {
    if (out.size() < kChunkBytes) return;
    os << out;
    out.clear();
  };
  JsonWriter w(out);
  w.begin_array();
  for (const auto& [track, name] : recorder.track_names()) {
    w.begin_object();
    w.field("name", "thread_name");
    w.field("ph", "M");
    w.field("pid", 0);
    w.field("tid", static_cast<std::int64_t>(track));
    w.key("args");
    w.begin_object();
    w.field("name", name);
    w.end_object();
    w.end_object();
    spill();
  }
  for (const TraceEvent& e : recorder.events()) {
    w.begin_object();
    w.field("name", e.name);
    w.field("cat", e.category);
    w.field("ph", "X");
    w.field("ts", e.start_cycle);
    w.field("dur", e.duration_cycles);
    w.field("pid", 0);
    w.field("tid", static_cast<std::int64_t>(e.track));
    w.end_object();
    spill();
  }
  // Name each span track once so Perfetto labels the request lanes.
  std::set<int> span_threads;
  for (const SpanRecord& s : recorder.spans()) span_threads.insert(s.thread_index);
  for (int thread : span_threads) {
    w.begin_object();
    w.field("name", "thread_name");
    w.field("ph", "M");
    w.field("pid", 0);
    w.field("tid", static_cast<std::int64_t>(TraceRecorder::kSpanTrackBase + thread));
    w.key("args");
    w.begin_object();
    w.field("name", "requests (thread " + std::to_string(thread) + ")");
    w.end_object();
    w.end_object();
    spill();
  }
  for (const SpanRecord& s : recorder.spans()) {
    w.begin_object();
    w.field("name", s.name);
    w.field("cat", "span");
    w.field("ph", "X");
    w.field("ts", static_cast<double>(s.start_us));
    w.field("dur", static_cast<double>(s.duration_us));
    w.field("pid", 0);
    w.field("tid", static_cast<std::int64_t>(TraceRecorder::kSpanTrackBase + s.thread_index));
    w.key("args");
    w.begin_object();
    w.field("trace", hex_id(s.context.trace_id));
    w.field("span", hex_id(s.context.span_id));
    w.field("parent", hex_id(s.context.parent_span_id));
    if (!s.detail.empty()) w.field("detail", s.detail);
    w.end_object();
    w.end_object();
    spill();
  }
  for (const CounterSample& s : recorder.counter_samples()) {
    w.begin_object();
    w.field("name", s.track);
    w.field("ph", "C");
    w.field("ts", s.cycle);
    w.field("pid", 0);
    w.key("args");
    w.begin_object();
    w.field("value", s.value);
    w.end_object();
    w.end_object();
    spill();
  }
  if (recorder.dropped() > 0 || recorder.dropped_counters() > 0 ||
      recorder.dropped_spans() > 0) {
    // Capacity overflow: surface the truncation inside the trace itself.
    w.begin_object();
    w.field("name", "trace_truncated");
    w.field("ph", "M");
    w.field("pid", 0);
    w.field("tid", 0);
    w.key("args");
    w.begin_object();
    w.field("dropped_events", static_cast<std::int64_t>(recorder.dropped()));
    w.field("dropped_counter_samples", static_cast<std::int64_t>(recorder.dropped_counters()));
    w.field("dropped_spans", static_cast<std::int64_t>(recorder.dropped_spans()));
    w.end_object();
    w.end_object();
    spill();
  }
  w.end_array();
  out.push_back('\n');
  os << out;
}

}  // namespace fusecu
