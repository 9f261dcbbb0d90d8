#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "common/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_session.hpp"
#include "obs/span.hpp"

namespace fusecu {
namespace {

/// Build a mutable argv from string literals (mains own their argv).
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (auto& s : storage) ptrs.push_back(s.data());
    ptrs.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc = 0;
  char** argv() { return ptrs.data(); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ExtractObsOptions, StripsFlagsAndKeepsTheRest) {
  Argv a({"tool", "--config", "x.cfg", "--metrics-out", "m.json", "--format", "json",
          "--trace-out=t.json"});
  int argc = a.argc;
  ObsOptions opts = extract_obs_options(argc, a.argv());
  ASSERT_TRUE(opts.metrics_out.has_value());
  EXPECT_EQ(*opts.metrics_out, "m.json");
  ASSERT_TRUE(opts.trace_out.has_value());
  EXPECT_EQ(*opts.trace_out, "t.json");
  ASSERT_EQ(argc, 5);
  EXPECT_STREQ(a.argv()[0], "tool");
  EXPECT_STREQ(a.argv()[1], "--config");
  EXPECT_STREQ(a.argv()[2], "x.cfg");
  EXPECT_STREQ(a.argv()[3], "--format");
  EXPECT_STREQ(a.argv()[4], "json");
  EXPECT_EQ(a.argv()[5], nullptr);
}

TEST(ExtractObsOptions, NoFlagsIsANoOp) {
  Argv a({"tool", "positional"});
  int argc = a.argc;
  ObsOptions opts = extract_obs_options(argc, a.argv());
  EXPECT_FALSE(opts.metrics_out.has_value());
  EXPECT_FALSE(opts.trace_out.has_value());
  EXPECT_EQ(argc, 2);
}

TEST(ExtractObsOptions, MissingValueThrows) {
  Argv a({"tool", "--metrics-out"});
  int argc = a.argc;
  EXPECT_THROW(extract_obs_options(argc, a.argv()), std::invalid_argument);
}

TEST(ObsSession, FlushWritesValidMetricsAndTraceJson) {
  const std::string metrics_path = testing::TempDir() + "fusecu_obs_metrics.json";
  const std::string trace_path = testing::TempDir() + "fusecu_obs_trace.json";
  {
    ObsOptions opts;
    opts.metrics_out = metrics_path;
    opts.trace_out = trace_path;
    ObsSession obs(opts);
    ASSERT_TRUE(obs.trace_enabled());
    ASSERT_NE(obs.trace(), nullptr);
    {
      ScopedSpan span("session_phase",
                      MetricsRegistry::global().histogram("time/session_phase"));
    }
    MetricsRegistry::global().counter("obs_session_test/events").add(2);
    obs.recorder().set_track_name(0, "DMA");
    obs.recorder().record({"load#0", "dma", 0, 0.0, 8.0});
    obs.recorder().record_counter("traffic_elements", 8.0, 64.0);
    obs.flush();
    obs.flush();  // idempotent
  }

  JsonValuePtr metrics = parse_json(slurp(metrics_path));
  EXPECT_DOUBLE_EQ(metrics->get("counters")->get("obs_session_test/events")->as_number(), 2.0);
  EXPECT_TRUE(metrics->get("histograms")->has("time/session_phase"));

  JsonValuePtr trace = parse_json(slurp(trace_path));
  ASSERT_TRUE(trace->is_array());
  bool saw_complete = false, saw_counter = false, saw_thread_name = false;
  for (const JsonValuePtr& event : trace->as_array()) {
    const std::string ph = event->get("ph")->as_string();
    if (ph == "X") saw_complete = true;
    if (ph == "C" && event->get("name")->as_string() == "traffic_elements") {
      EXPECT_DOUBLE_EQ(event->get("args")->get("value")->as_number(), 64.0);
      saw_counter = true;
    }
    if (ph == "M" && event->get("name")->as_string() == "thread_name") saw_thread_name = true;
  }
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_thread_name);
}

TEST(ExtractObsOptions, StripsLoggingAndFlightFlags) {
  Argv a({"tool", "--log-out", "l.jsonl", "--log-level=warn", "--flight-out", "f.json", "run"});
  int argc = a.argc;
  ObsOptions opts = extract_obs_options(argc, a.argv());
  ASSERT_TRUE(opts.log_out.has_value());
  EXPECT_EQ(*opts.log_out, "l.jsonl");
  ASSERT_TRUE(opts.log_level.has_value());
  EXPECT_EQ(*opts.log_level, "warn");
  ASSERT_TRUE(opts.flight_out.has_value());
  EXPECT_EQ(*opts.flight_out, "f.json");
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(a.argv()[1], "run");
}

TEST(ObsSession, LogSessionWritesJsonlAndDetachesOnFlush) {
  const std::string log_path = testing::TempDir() + "fusecu_obs_log.jsonl";
  {
    ObsOptions opts;
    opts.log_out = log_path;
    opts.log_level = "warn";
    ObsSession obs(opts);
    ASSERT_TRUE(obs.log_enabled());
    EXPECT_TRUE(Logger::global().enabled(LogLevel::kWarn));
    log_info("obs_session_test", "below threshold, dropped");
    log_warn("obs_session_test", "kept", {{"n", "1"}});
    obs.flush();
  }
  // The session detached the logger on flush.
  EXPECT_FALSE(Logger::global().enabled(LogLevel::kError));

  std::istringstream lines(slurp(log_path));
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  JsonValuePtr entry = parse_json(line);
  EXPECT_EQ(entry->get("level")->as_string(), "warn");
  EXPECT_EQ(entry->get("component")->as_string(), "obs_session_test");
  EXPECT_EQ(entry->get("msg")->as_string(), "kept");
  EXPECT_EQ(entry->get("n")->as_string(), "1");
  EXPECT_FALSE(std::getline(lines, line)) << "info line must have been filtered: " << line;
}

TEST(ObsSession, TraceSessionRoutesSpansIntoTheChromeTrace) {
  const std::string trace_path = testing::TempDir() + "fusecu_obs_span_trace.json";
  {
    ObsOptions opts;
    opts.trace_out = trace_path;
    ObsSession obs(opts);
    ScopedSpan span("session_span");
    span.note("unit");
  }
  JsonValuePtr trace = parse_json(slurp(trace_path));
  ASSERT_TRUE(trace->is_array());
  bool saw_span = false;
  for (const JsonValuePtr& event : trace->as_array()) {
    if (event->get("ph")->as_string() == "X" &&
        event->get("name")->as_string() == "session_span") {
      saw_span = true;
      EXPECT_FALSE(event->get("args")->get("trace")->as_string().empty());
      EXPECT_EQ(event->get("args")->get("detail")->as_string(), "unit");
    }
  }
  EXPECT_TRUE(saw_span);
}

TEST(ObsSession, DisabledSessionWritesNothing) {
  ObsSession obs(ObsOptions{});
  EXPECT_FALSE(obs.metrics_enabled());
  EXPECT_FALSE(obs.trace_enabled());
  EXPECT_EQ(obs.trace(), nullptr);
  obs.flush();  // must not throw
}

}  // namespace
}  // namespace fusecu
