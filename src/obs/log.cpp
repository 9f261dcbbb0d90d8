#include "obs/log.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/json_writer.hpp"
#include "common/timeutil.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/span.hpp"

namespace fusecu {

namespace {

std::string hex_id(std::uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, id);
  return std::string(buf);
}

}  // namespace

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "off";
}

std::optional<LogLevel> parse_log_level(const std::string& text) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn, LogLevel::kError,
                         LogLevel::kOff}) {
    if (text == log_level_name(level)) return level;
  }
  return std::nullopt;
}

Logger& Logger::global() {
  static Logger* instance = new Logger();  // never destroyed
  return *instance;
}

void Logger::recompute_threshold() {
  int threshold = sink_threshold_.load(std::memory_order_relaxed);
  if (mirror_to_flight_.load(std::memory_order_relaxed)) {
    threshold = std::min(threshold, static_cast<int>(LogLevel::kInfo));
  }
  effective_threshold_.store(threshold, std::memory_order_relaxed);
}

void Logger::configure(LogLevel level, std::shared_ptr<std::ostream> sink) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    sink_ = std::move(sink);
    sink_threshold_.store(sink_ ? static_cast<int>(level) : static_cast<int>(LogLevel::kOff),
                          std::memory_order_relaxed);
  }
  recompute_threshold();
}

void Logger::reset() { configure(LogLevel::kOff, nullptr); }

void Logger::set_mirror_to_flight(bool mirror) {
  mirror_to_flight_.store(mirror, std::memory_order_relaxed);
  recompute_threshold();
}

void Logger::log(LogLevel level, const char* component, std::string_view message,
                 std::initializer_list<LogField> fields) {
  if (!enabled(level) || level == LogLevel::kOff) return;
  const std::int64_t ts_us = span_clock_us();
  const SpanContext span = current_span();
  const std::string msg(message);

  if (mirror_to_flight_.load(std::memory_order_relaxed) && level >= LogLevel::kInfo) {
    FlightRecorder& flight = FlightRecorder::global();
    if (flight.armed()) flight.record_log(static_cast<int>(level), component, msg, span, ts_us);
  }

  if (static_cast<int>(level) < sink_threshold_.load(std::memory_order_relaxed)) return;

  // Build the full line outside the lock; emit it in one write so lines
  // from concurrent workers never interleave mid-line.
  std::string line;
  JsonWriter w(line);
  w.begin_object();
  w.field("time", rfc3339_utc_now());
  w.field("ts_us", ts_us);
  w.field("level", log_level_name(level));
  w.field("component", component);
  w.field("thread", obs_thread_index());
  if (span.valid()) {
    w.field("trace", hex_id(span.trace_id));
    w.field("span", hex_id(span.span_id));
  }
  w.field("msg", msg);
  for (const LogField& field : fields) w.field(field.key, field.value);
  w.end_object();
  line.push_back('\n');

  std::lock_guard<std::mutex> lock(mu_);
  if (sink_) {
    *sink_ << line;
    sink_->flush();
  }
}

}  // namespace fusecu
