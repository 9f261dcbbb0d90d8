#include <gtest/gtest.h>

#include "check/harness.hpp"
#include "obs/metrics.hpp"
#include "principles/principle_optimizer.hpp"
#include "search/exhaustive.hpp"

namespace fusecu {
namespace {

Workload intra_workload(Index m, Index k, Index l, BufferSize bs) {
  Workload w;
  w.kind = WorkloadKind::kIntra;
  w.m = m;
  w.k = k;
  w.l = l;
  w.bs = bs;
  return w;
}

Workload fused_workload(Index m, Index k, Index l, Index n, BufferSize bs) {
  Workload w = intra_workload(m, k, l, bs);
  w.kind = WorkloadKind::kFused;
  w.n = n;
  return w;
}

// --- Pinned workloads through the full oracle stack.  These are the shapes
// a human reaches for first when a regression appears, so they must always
// be green, with everything enabled (simulator, serve, arch).

TEST(Conformance, PinnedIntraShapesPass) {
  for (const Workload& w : {
           intra_workload(64, 64, 64, 1024),   // square, medium buffer
           intra_workload(1, 1, 1, 3),         // fully degenerate
           intra_workload(17, 19, 23, 64),     // primes, tiny buffer
           intra_workload(96, 1, 96, 200),     // unit reduction dim
           intra_workload(8, 64, 8, 4096),     // buffer dwarfs the op
       }) {
    CheckReport r = check_workload(w);
    EXPECT_TRUE(r.ok()) << w.to_string() << "\n" << r.summary();
    EXPECT_GT(r.checks_run, 0);
  }
}

TEST(Conformance, PinnedFusedShapesPass) {
  for (const Workload& w : {
           fused_workload(16, 16, 16, 16, 512),
           fused_workload(1, 1, 1, 1, 3),      // the old residual>=3 off-by-one
           fused_workload(10, 1, 23, 8, 104),  // historical phased-optimality gap
           fused_workload(32, 8, 32, 8, 6000), // resident-C territory
       }) {
    CheckReport r = check_workload(w);
    EXPECT_TRUE(r.ok()) << w.to_string() << "\n" << r.summary();
  }
}

// BERT-base attention-ish projection: seq 128, d_model-slice 64, pinned as
// the representative "real model layer" the paper evaluates.
TEST(Conformance, BertProjectionSlicePasses) {
  CheckReport intra = check_workload(intra_workload(128, 64, 128, 8 * 1024));
  EXPECT_TRUE(intra.ok()) << intra.summary();
  CheckReport fused = check_workload(fused_workload(128, 64, 128, 64, 8 * 1024));
  EXPECT_TRUE(fused.ok()) << fused.summary();
}

TEST(Conformance, ChainWorkloadPasses) {
  Workload w;
  w.kind = WorkloadKind::kChain;
  w.chain.m = 16;
  w.chain.dims = {24, 32, 8};
  w.chain.act_after = {true};
  w.bs = 2048;
  CheckReport r = check_workload(w);
  EXPECT_TRUE(r.ok()) << r.summary();
}

// --- The closed-form floor is sound and tight where it should be.

TEST(LowerBound, NeverExceedsRealizedOptimum) {
  for (const Workload& w : {intra_workload(64, 64, 64, 256), intra_workload(7, 100, 7, 30),
                            intra_workload(128, 8, 128, 4096)}) {
    TensorOp op = w.intra_op();
    EXPECT_LE(intra_traffic_lower_bound(op, w.bs), optimize_intra(op, w.bs).access.total)
        << w.to_string();
  }
}

TEST(LowerBound, MeetsIdealAtLargeBuffers) {
  TensorOp op = TensorOp::matmul("lb", 32, 32, 32);
  const BufferSize huge = 3 * 32 * 32 + 64;
  EXPECT_EQ(intra_traffic_lower_bound(op, huge), op.ideal_min_access());
  EXPECT_EQ(optimize_intra(op, huge).access.total, op.ideal_min_access());
}

// --- Harness smoke: a short deterministic run is clean, counts what it
// claims, and is reproducible.

TEST(Harness, ShortRunIsCleanAndDeterministic) {
  HarnessOptions opts;
  opts.seed = 7;
  opts.trials = 25;
  HarnessResult a = run_conformance(opts);
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.trials_run, 25);
  EXPECT_GT(a.checks_run, 25);  // each trial runs many checks

  HarnessResult b = run_conformance(opts);
  EXPECT_EQ(a.checks_run, b.checks_run);  // same seed, same trial stream

  // Whole trials, serve checks included, fan out over the pool.
  Counter& serve_checks = MetricsRegistry::global().counter("check/serve_checks");
  const std::int64_t serial_before = serve_checks.value();
  HarnessResult serial = run_conformance(opts);
  const std::int64_t serial_serve_checks = serve_checks.value() - serial_before;
  opts.jobs = 4;
  const std::int64_t parallel_before = serve_checks.value();
  HarnessResult parallel = run_conformance(opts);
  EXPECT_EQ(parallel.trials_run, serial.trials_run);
  EXPECT_EQ(parallel.checks_run, serial.checks_run);
  EXPECT_EQ(parallel.failed_trials, serial.failed_trials);
  EXPECT_GT(serial_serve_checks, 0);
  EXPECT_EQ(serve_checks.value() - parallel_before, serial_serve_checks);
}

TEST(Harness, InjectedFailuresAreIdenticalAcrossJobs) {
  HarnessOptions opts;
  opts.seed = 7;
  opts.trials = 40;
  opts.shrink = false;
  // Flip the principled M tile to its other extreme: the plan no longer
  // re-evaluates to its reported cost.  Pure, so safe on any thread.
  opts.check.intra_mutator = [](const TensorOp& op, IntraOptResult& r) {
    Index& t_m = r.dataflow.tile[static_cast<std::size_t>(mm::kDimM)];
    t_m = (t_m == op.extent(mm::kDimM)) ? 1 : op.extent(mm::kDimM);
  };
  HarnessResult serial = run_conformance(opts);
  opts.jobs = 4;
  HarnessResult parallel = run_conformance(opts);

  ASSERT_GT(serial.failed_trials, 0) << "the injected bug must be detected";
  EXPECT_EQ(parallel.failed_trials, serial.failed_trials);
  EXPECT_EQ(parallel.checks_run, serial.checks_run);
  ASSERT_EQ(parallel.failures.size(), serial.failures.size());
  for (std::size_t i = 0; i < serial.failures.size(); ++i) {
    EXPECT_EQ(parallel.failures[i].workload.to_string(), serial.failures[i].workload.to_string());
    EXPECT_EQ(parallel.failures[i].report.summary(), serial.failures[i].report.summary());
  }
}

TEST(Harness, ReplayReproMatchesDirectCheck) {
  TrialFailure f;
  f.workload = intra_workload(17, 19, 23, 64);
  f.shrunk.workload = f.workload;
  Repro repro = make_repro(f);
  CheckReport r = replay_repro(repro);
  EXPECT_TRUE(r.ok()) << r.summary();
}

}  // namespace
}  // namespace fusecu
