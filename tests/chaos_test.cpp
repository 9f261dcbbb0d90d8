#include "check/chaos.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/harness.hpp"

/// check/chaos.hpp: seeded chaos trials against the real net/serve stack.
/// Covered: a clean trial on the healthy server, report determinism across
/// runs, the harness *detecting* an intentionally broken server
/// (TestBug::kReorderResponses) and shrinking its fault schedule, and the
/// repro artifact round trip.  Trials here are small (a few connections,
/// in-process loopback) so the suite stays fast.

namespace fusecu {
namespace {

ChaosOptions small_options() {
  ChaosOptions opts;
  opts.trials = 3;
  opts.seed = 99;
  opts.max_failures = 2;
  return opts;
}

TEST(Chaos, HealthyServerSurvivesSeededFaultTrials) {
  const ChaosOptions opts = small_options();
  std::ostringstream progress;
  const ChaosResult result = run_chaos(opts, &progress);
  EXPECT_EQ(result.trials_run, 3);
  EXPECT_EQ(result.failed_trials, 0) << progress.str();
  EXPECT_EQ(result.checks_run, 3 * 7);
  EXPECT_TRUE(result.ok());
}

TEST(Chaos, MultiReactorServerHoldsTheSameInvariants) {
  // The invariants are reactor-count-independent, so the same seeded trials
  // double as the multi-reactor drain/order/byte-identity suite: order per
  // connection, no lost responses, graceful drain — now across two sharded
  // event loops with the fault injector armed.
  ChaosOptions opts = small_options();
  opts.reactors = 2;
  std::ostringstream progress;
  const ChaosResult result = run_chaos(opts, &progress);
  EXPECT_EQ(result.trials_run, 3);
  EXPECT_EQ(result.failed_trials, 0) << progress.str();
  EXPECT_TRUE(result.ok());
}

TEST(Chaos, ReportIsByteIdenticalAcrossRuns) {
  // The acceptance bar for --chaos-trials: same seed, same flags, same
  // bytes — even though thread scheduling differs between the two runs.
  const ChaosOptions opts = small_options();
  std::ostringstream first, second;
  run_chaos(opts, &first);
  run_chaos(opts, &second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("chaos trial 0"), std::string::npos);
}

TEST(Chaos, ReorderBugIsCaughtAndShrunkToATinySchedule) {
  // Arm the intentional server bug (flush any done slot instead of the
  // contiguous prefix) over enough trials that at least one creates
  // out-of-order completions; the harness must flag net/response_order and
  // the shrinker must land on a small (<= 10 event) schedule.
  ChaosOptions opts;
  opts.trials = 10;
  opts.seed = 3;
  opts.bug = fault::TestBug::kReorderResponses;
  opts.max_failures = 1;
  std::ostringstream progress;
  const ChaosResult result = run_chaos(opts, &progress);
  ASSERT_GT(result.failed_trials, 0) << "the broken server must be detected\n" << progress.str();
  ASSERT_FALSE(result.failures.empty());
  const ChaosFailure& failure = result.failures.front();
  EXPECT_EQ(failure.violations.front().invariant, "net/response_order");
  EXPECT_LE(failure.shrunk.plan.events.size(), 10u);
  EXPECT_GE(failure.shrunk.attempts, 1);
  EXPECT_EQ(failure.shrunk.invariant, "net/response_order");
}

TEST(Chaos, ReproArtifactRoundTripsThroughJson) {
  ChaosFailure failure;
  failure.trial = 7;
  failure.seed = 0xfeedfacecafebeefull;
  failure.reactors = 2;
  failure.plan = fault::FaultPlan::generate(failure.seed, 8);
  failure.shrunk.plan = failure.plan;
  failure.shrunk.plan.events.resize(1);
  failure.shrunk.invariant = "net/response_order";
  failure.violations.push_back({"net/response_order", "conn 0 position 2: expected \"c0-r2\""});

  const std::string json = chaos_repro_to_json(failure);
  const ChaosFailure parsed = chaos_repro_from_json(json);
  EXPECT_EQ(parsed.trial, failure.trial);
  EXPECT_EQ(parsed.seed, failure.seed);
  EXPECT_EQ(parsed.reactors, 2) << "replay must rebuild the server at the recorded shard count";
  ASSERT_EQ(parsed.plan.events.size(), failure.plan.events.size());
  for (std::size_t i = 0; i < parsed.plan.events.size(); ++i) {
    EXPECT_EQ(parsed.plan.events[i].kind, failure.plan.events[i].kind);
    EXPECT_EQ(parsed.plan.events[i].at, failure.plan.events[i].at);
    EXPECT_EQ(parsed.plan.events[i].arg, failure.plan.events[i].arg);
  }
  ASSERT_EQ(parsed.shrunk.plan.events.size(), 1u);
  EXPECT_EQ(parsed.shrunk.invariant, "net/response_order");
  ASSERT_EQ(parsed.violations.size(), 1u);
  EXPECT_EQ(parsed.violations.front().invariant, "net/response_order");
  EXPECT_EQ(parsed.violations.front().detail, failure.violations.front().detail);

  EXPECT_THROW(chaos_repro_from_json("{\"schema\":\"other/1\"}"), std::invalid_argument);
}

TEST(Chaos, ReproRejectsAReactorCountBelowOneOrNotAnInteger) {
  ChaosFailure failure;
  failure.reactors = 1;
  const std::string json = chaos_repro_to_json(failure);
  const std::string field = "\"reactors\":1";
  const std::size_t at = json.find(field);
  ASSERT_NE(at, std::string::npos) << json;
  for (const char* bad : {"0", "-2", "1.5", "\"2\""}) {
    std::string text = json;
    text.replace(at, field.size(), std::string("\"reactors\":") + bad);
    try {
      chaos_repro_from_json(text, "old.json");
      ADD_FAILURE() << "accepted \"reactors\":" << bad;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("old.json: \"reactors\""), std::string::npos) << what;
      EXPECT_NE(what.find("use 1"), std::string::npos) << what;
      EXPECT_NE(what.find("same one-reactor server"), std::string::npos) << what;
    }
  }
}

TEST(Chaos, ReplayRunsTheShrunkPlanOnTheHealthyServer) {
  // A repro whose plan is benign on the fixed server: replay reports no
  // violations (the bug was in the server build that produced it).
  ChaosFailure failure;
  failure.seed = trial_seed(99, 0);
  failure.plan = fault::FaultPlan::generate(failure.seed, 6);
  failure.shrunk.plan = failure.plan;
  failure.shrunk.invariant = "net/response_order";
  const ChaosTrialReport report = replay_chaos_repro(failure);
  EXPECT_TRUE(report.ok()) << report.violations.front().detail;
  EXPECT_EQ(report.checks_run, 7);
}

TEST(Chaos, ShrinkerPreservesTheFailingInvariantNotJustAnyFailure) {
  // Against a healthy server no schedule fails, so shrinking a passing
  // (seed, plan) pair must keep the original plan untouched: attempts > 0,
  // nothing accepted.
  const std::uint64_t seed = trial_seed(99, 1);
  const fault::FaultPlan plan = fault::FaultPlan::generate(seed, 6);
  const ChaosShrinkResult shrunk = shrink_fault_plan(seed, plan, "net/response_order", {});
  EXPECT_EQ(shrunk.accepted, 0);
  EXPECT_EQ(shrunk.plan.events.size(), plan.events.size());
  EXPECT_GE(shrunk.attempts, 1);
}

}  // namespace
}  // namespace fusecu
