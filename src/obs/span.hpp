#pragma once

#include <chrono>
#include <cstdint>
#include <string>

/// \file span.hpp
/// Request-scoped span tracing: a 64-bit (trace id, span id, parent) context
/// threaded through the planning service, the optimizers and the simulator
/// fast path, so one JSONL request can be followed end to end —
/// canonicalize, cache lookup, optimize, serialize — as a properly nested
/// tree.
///
/// The design is the usual tracing-context one: each thread carries an
/// *ambient* current span; `ScopedSpan` opens a child of the ambient span
/// (or a fresh trace root when there is none), installs itself as the new
/// ambient span, and on destruction emits a finished `SpanRecord` to the
/// installed `SpanSink` and — when armed — to the flight recorder
/// (obs/flight_recorder.hpp).  Work handed to another thread starts a new
/// root there unless the submitting code opens the root inside the posted
/// task, which is exactly what the plan service does.
///
/// A *timed* span (constructed with a Histogram) is also the library's one
/// scope timer: it reads the clock when it opens and when it closes and
/// always observes that duration, in seconds, into its histogram — by
/// convention `time/<span name>`, resolved once per site.  Its span record,
/// when one is emitted, carries the same two clock reads.
///
/// Cost model: when no sink is installed and the flight recorder is not
/// armed, an untimed ScopedSpan is inert — no clock read, no id
/// allocation, two relaxed atomic loads total — and a timed one costs its
/// two clock reads and one histogram observe, so instrumentation can stay
/// on hot paths permanently.  Ids are allocated from a process-wide
/// counter mixed through splitmix64 (never zero), so they are unique
/// without needing a randomness source.
///
/// Timestamps are steady-clock microseconds since the first use of the
/// span clock in the process ("span epoch"); log lines share the same
/// clock, so spans and logs interleave consistently in the flight recorder
/// and in exported traces.

namespace fusecu {

class Histogram;

/// Identity of one span: which trace it belongs to, its own id, and its
/// parent's id (0 for a trace root).
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;

  bool valid() const { return span_id != 0; }
};

/// One finished span, as delivered to the sink.
struct SpanRecord {
  std::string name;    ///< stable identifier, e.g. "cache_lookup"
  std::string detail;  ///< optional outcome annotation, e.g. "hit"
  SpanContext context;
  int thread_index = 0;         ///< dense per-thread index (obs_thread_index)
  std::int64_t start_us = 0;    ///< microseconds since the span epoch
  std::int64_t duration_us = 0;
};

/// Destination for finished spans.  Implementations must be thread-safe:
/// pool workers finish spans concurrently.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void on_span(const SpanRecord& span) = 0;
};

/// Install the process-wide span sink (nullptr clears); returns the
/// previous one.  The sink must outlive every span finished while it is
/// installed.
SpanSink* set_span_sink(SpanSink* sink);

/// True when finished spans go anywhere at all (a sink is installed or the
/// flight recorder is armed) — the gate every instrumentation site checks
/// before reading clocks.
bool span_recording_enabled();

/// Microseconds on the span clock (steady, starts near 0 at first use).
std::int64_t span_clock_us();

/// Dense 0-based index of the calling thread, assigned on first use.
/// Shared by span records (trace track ids) and the flight recorder
/// (per-thread ring selection).
int obs_thread_index();

/// The calling thread's ambient span (invalid when none is open).
SpanContext current_span();

/// RAII span: opens as a child of the ambient span — or as a new trace
/// root when there is none — and becomes the ambient span until destroyed.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  /// Timed span: same, and its duration (seconds) is observed into
  /// \p timing on destruction whether or not the span is recording.
  ScopedSpan(const char* name, Histogram& timing);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when this span will be emitted on destruction.
  bool recording() const { return active_; }
  const SpanContext& context() const { return context_; }

  /// Attach an outcome annotation ("hit", "miss", "joined", ...) carried in
  /// the record's detail field.  No-op when not recording.
  void note(const char* detail);

  /// Seconds since a timed span opened (one extra clock read; 0 for an
  /// untimed span).
  double elapsed_seconds() const;

 private:
  void open(const char* name);
  void close(std::int64_t end_us);

  SpanContext context_;
  SpanContext saved_ambient_;
  std::string detail_;
  const char* name_ = nullptr;
  std::int64_t start_us_ = 0;
  Histogram* timing_ = nullptr;
  std::chrono::steady_clock::time_point timing_start_;
  bool active_ = false;
};

}  // namespace fusecu
