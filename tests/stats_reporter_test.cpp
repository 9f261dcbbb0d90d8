#include "serve/stats_reporter.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/plan_service.hpp"

/// StatsReporter: the periodic "stats:" line emitted by the serving
/// front-ends.  The regression under test is the shutdown fix — the final
/// partial period (traffic between the last tick and exit) must be flushed
/// as one last line instead of silently dropped — plus the converse: an
/// all-quiet tail emits nothing.

namespace fusecu {
namespace {

int serve_requests(PlanService& service, int n) {
  std::string input;
  for (int i = 0; i < n; ++i) {
    input += "{\"id\":\"s" + std::to_string(i) +
             "\",\"op\":\"matmul\",\"m\":64,\"k\":64,\"l\":64,\"buffer\":\"512KB\"}\n";
  }
  std::istringstream in(input);
  std::ostringstream out;
  return service.serve_stream(in, out, "stats_test.jsonl");
}

int count_lines(const std::string& text) {
  int lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  return lines;
}

TEST(StatsReporter, FinalPartialPeriodIsFlushedOnShutdown) {
  PlanService service(ServeOptions{.threads = 2});
  std::ostringstream os;
  {
    // Interval far beyond the test's lifetime: no tick ever fires, so any
    // output can only come from the destructor's final flush.
    StatsReporter reporter(service, /*interval_s=*/3600.0, os);
    ASSERT_EQ(serve_requests(service, 3), 3);
  }
  const std::string out = os.str();
  ASSERT_NE(out.find("stats:"), std::string::npos)
      << "the tail window between the last tick and exit was dropped; got: \"" << out << "\"";
  EXPECT_EQ(count_lines(out), 1) << out;
  EXPECT_NE(out.find("requests=3"), std::string::npos) << out;
  EXPECT_NE(out.find("qps="), std::string::npos) << out;
  EXPECT_NE(out.find("p99_us="), std::string::npos) << out;
}

TEST(StatsReporter, LineCarriesShedRateInFieldOrder) {
  // shed_rate= (period delta of net/shed over net/responses) rides every
  // stats line, in a fixed field order so log scrapers can anchor on the
  // prefix.
  PlanService service(ServeOptions{.threads = 2});
  std::ostringstream os;
  {
    StatsReporter reporter(service, 3600.0, os);
    ASSERT_EQ(serve_requests(service, 3), 3);
  }
  const std::string out = os.str();
  ASSERT_NE(out.find("stats:"), std::string::npos) << out;
  EXPECT_NE(out.find(" shed_rate="), std::string::npos) << out;
  // The stdin path never sheds: the rate must be exactly 0.
  EXPECT_NE(out.find(" shed_rate=0 "), std::string::npos) << out;
  // Field order is part of the line contract.
  EXPECT_LT(out.find(" hit_rate="), out.find(" shed_rate=")) << out;
  EXPECT_LT(out.find(" shed_rate="), out.find(" p50_us=")) << out;
  EXPECT_LT(out.find(" p99_us="), out.find(" requests=")) << out;
}

TEST(StatsReporter, IdleShutdownEmitsNothing) {
  PlanService service(ServeOptions{.threads = 2});
  std::ostringstream os;
  {
    StatsReporter reporter(service, 3600.0, os);
  }
  EXPECT_EQ(os.str(), "") << "an all-quiet tail must not produce a noise line";
}

TEST(StatsReporter, ErrorsAloneStillFlush) {
  PlanService service(ServeOptions{.threads = 2});
  std::ostringstream os;
  {
    StatsReporter reporter(service, 3600.0, os);
    std::istringstream in("this is not json\n");
    std::ostringstream responses;
    ASSERT_EQ(service.serve_stream(in, responses, "bad.jsonl"), 1);
  }
  const std::string out = os.str();
  ASSERT_NE(out.find("stats:"), std::string::npos) << out;
  EXPECT_NE(out.find("errors=1"), std::string::npos) << out;
}

TEST(StatsReporter, PeriodicTicksEmitWhileServing) {
  PlanService service(ServeOptions{.threads = 2});
  std::ostringstream os;
  {
    StatsReporter reporter(service, /*interval_s=*/0.05, os);
    ASSERT_EQ(serve_requests(service, 5), 5);
    // Generous margin: several intervals must elapse even on a loaded CI
    // machine for at least one periodic line to land.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  }
  EXPECT_GE(count_lines(os.str()), 1) << os.str();
  EXPECT_NE(os.str().find("stats:"), std::string::npos);
}

TEST(StatsReporter, MultiProducerTrafficAggregatesIntoWellFormedLines) {
  // The reactor refactor made the producer side many-threaded: every shard
  // bumps the global atomics concurrently.  The
  // writer stays single (ticker thread, then the destructor strictly after
  // the join — enforced with emit_mu_), so under concurrent producers every
  // emitted line must still be whole, and the cumulative requests= field on
  // the final flush must account for every producer exactly once.
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::int64_t before = reg.counter("serve/requests").value();
  PlanService service(ServeOptions{.threads = 4});
  std::ostringstream os;
  {
    StatsReporter reporter(service, /*interval_s=*/0.02, os);
    std::vector<std::thread> producers;
    for (int t = 0; t < 4; ++t) {
      producers.emplace_back([&service] { EXPECT_EQ(serve_requests(service, 25), 25); });
    }
    for (std::thread& p : producers) p.join();
  }
  const std::string out = os.str();
  ASSERT_GE(count_lines(out), 1) << out;
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("stats: qps=", 0), 0u) << "torn or interleaved line: \"" << line << "\"";
  }
  // The final flush covers everything the 4 producers served.
  const std::string expected = "requests=" + std::to_string(before + 100);
  EXPECT_NE(out.rfind(expected), std::string::npos) << out;
}

}  // namespace
}  // namespace fusecu
