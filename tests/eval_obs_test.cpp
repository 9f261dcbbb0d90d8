#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "common/json_parse.hpp"

/// End-to-end acceptance for the observability CLI surface: run the real
/// fusecu_eval binary with --metrics-out / --trace-out and check that both
/// artifacts are valid JSON, the trace carries enough counter tracks for
/// Perfetto, and the metrics registry contains optimizer wall-time
/// histograms.  The binary path is injected by CMake.

#ifndef FUSECU_EVAL_BIN
#error "FUSECU_EVAL_BIN must be defined to the fusecu_eval binary path"
#endif

namespace fusecu {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(FusecuEval, MetricsAndTraceOutputsAreValid) {
  const std::string metrics_path = testing::TempDir() + "fusecu_eval_metrics.json";
  const std::string trace_path = testing::TempDir() + "fusecu_eval_trace.json";
  const std::string cmd = std::string(FUSECU_EVAL_BIN) + " --format json --metrics-out " +
                          metrics_path + " --trace-out " + trace_path + " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  // Metrics: valid JSON with per-phase wall-time histograms and planner
  // counters from the instrumented evaluation path.
  JsonValuePtr metrics = parse_json(slurp(metrics_path));
  const auto& histograms = metrics->get("histograms")->as_object();
  int time_histograms = 0;
  for (const auto& [name, h] : histograms) {
    if (name.rfind("time/", 0) != 0) continue;
    ++time_histograms;
    EXPECT_GE(h->get("count")->as_number(), 1.0) << name;
    EXPECT_GE(h->get("p99")->as_number(), h->get("p50")->as_number()) << name;
  }
  EXPECT_GE(time_histograms, 2);
  for (const char* phase : {"time/optimize/intra_for_arch", "time/plan_chain_for_arch"}) {
    EXPECT_TRUE(histograms.count(phase)) << "expected a " << phase << " histogram";
  }
  EXPECT_GE(metrics->get("counters")->get("eval/evaluations")->as_number(), 1.0);

  // Trace: valid JSON array with duration events and >= 3 counter tracks.
  JsonValuePtr trace = parse_json(slurp(trace_path));
  ASSERT_TRUE(trace->is_array());
  std::set<std::string> counter_tracks;
  int duration_events = 0;
  for (const JsonValuePtr& e : trace->as_array()) {
    const std::string ph = e->get("ph")->as_string();
    if (ph == "C") counter_tracks.insert(e->get("name")->as_string());
    if (ph == "X") ++duration_events;
  }
  EXPECT_GE(counter_tracks.size(), 3u) << "Perfetto counter tracks";
  EXPECT_GE(duration_events, 1);
}

}  // namespace
}  // namespace fusecu
