#include "obs/span.hpp"

#include <atomic>
#include <chrono>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace fusecu {

namespace {

std::atomic<SpanSink*> g_sink{nullptr};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<int> g_next_thread_index{0};

thread_local SpanContext t_current_span;

/// splitmix64 finalizer: spreads the sequential counter over the id space
/// so ids from different runs / threads don't collide visually.  Never
/// returns 0 (0 means "no span").
std::uint64_t mix_id(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

std::uint64_t next_id() { return mix_id(g_next_id.fetch_add(1, std::memory_order_relaxed)); }

std::chrono::steady_clock::time_point span_epoch() {
  static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  return epoch;
}

/// The steady clock, read after the span epoch is fixed, so no reading
/// precedes the epoch.
std::chrono::steady_clock::time_point span_now() {
  span_epoch();
  return std::chrono::steady_clock::now();
}

/// \p t (not before the epoch) on the span clock, in microseconds.
std::int64_t span_us(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(t - span_epoch()).count();
}

/// Context of a new span under the calling thread's ambient span: its
/// child, or the root of a fresh trace when there is none.
SpanContext child_of_ambient() {
  const SpanContext parent = t_current_span;
  SpanContext context;
  context.span_id = next_id();
  context.trace_id = parent.valid() ? parent.trace_id : next_id();
  context.parent_span_id = parent.span_id;
  return context;
}

void dispatch(SpanRecord&& record) {
  FlightRecorder& flight = FlightRecorder::global();
  if (flight.armed()) flight.record_span(record);
  if (SpanSink* sink = g_sink.load(std::memory_order_acquire)) sink->on_span(record);
}

}  // namespace

SpanSink* set_span_sink(SpanSink* sink) {
  return g_sink.exchange(sink, std::memory_order_acq_rel);
}

bool span_recording_enabled() {
  return g_sink.load(std::memory_order_relaxed) != nullptr ||
         FlightRecorder::global().armed();
}

std::int64_t span_clock_us() { return span_us(span_now()); }

int obs_thread_index() {
  thread_local const int index = g_next_thread_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

SpanContext current_span() { return t_current_span; }

void ScopedSpan::open(const char* name) {
  context_ = child_of_ambient();
  saved_ambient_ = t_current_span;
  t_current_span = context_;
  name_ = name;
  start_us_ = timing_ != nullptr ? span_us(timing_start_) : span_clock_us();
  active_ = true;
}

void ScopedSpan::close(std::int64_t end_us) {
  t_current_span = saved_ambient_;
  SpanRecord record;
  record.name = name_;
  record.detail = std::move(detail_);
  record.context = context_;
  record.thread_index = obs_thread_index();
  record.start_us = start_us_;
  record.duration_us = end_us - start_us_;
  dispatch(std::move(record));
}

ScopedSpan::ScopedSpan(const char* name) {
  if (span_recording_enabled()) open(name);
}

ScopedSpan::ScopedSpan(const char* name, Histogram& timing)
    : timing_(&timing), timing_start_(span_now()) {
  if (span_recording_enabled()) open(name);
}

ScopedSpan::~ScopedSpan() {
  if (timing_ == nullptr) {
    if (active_) close(span_clock_us());
    return;
  }
  const auto end = std::chrono::steady_clock::now();
  timing_->observe(std::chrono::duration<double>(end - timing_start_).count());
  if (active_) close(span_us(end));
}

void ScopedSpan::note(const char* detail) {
  if (active_) detail_ = detail;
}

double ScopedSpan::elapsed_seconds() const {
  if (timing_ == nullptr) return 0.0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - timing_start_).count();
}

}  // namespace fusecu
