#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "check/conformance.hpp"
#include "check/gen.hpp"
#include "check/repro.hpp"
#include "check/shrink.hpp"

/// \file harness.hpp
/// The conformance trial loop behind `fusecu_check`: derive a workload per
/// trial from (base seed, trial index), run every oracle cross-check, and on
/// failure shrink the counterexample to its minimal form.
///
/// Seed-reporting convention: every workload carries the *derived* per-trial
/// seed (a splitmix64 mix of base seed and trial index), and that seed alone
/// regenerates the workload — `trial_seed()` is a pure function, so a single
/// failing trial replays without re-running the preceding ones.
///
/// Parallelism: with jobs > 1 whole trials fan out over a serve ThreadPool
/// and their reports are collected in trial order.  Every trial always runs
/// to completion, so the report, the printed coverage counters and any
/// repro artifact are byte-identical no matter how many workers ran.

namespace fusecu {

/// Configuration of one conformance run.
struct HarnessOptions {
  std::uint64_t seed = 1;  ///< base seed; trial i uses trial_seed(seed, i)
  int trials = 100;
  GenLimits limits;
  CheckOptions check;
  bool shrink = true;      ///< minimize failing workloads
  /// Cap on stored (and shrunk) failures; trials beyond it still run and are
  /// still counted, so the aggregate result does not depend on where the
  /// cap fell.
  int max_failures = 8;
  int jobs = 1;            ///< worker threads for the trials
};

/// One failing trial with its minimized form.
struct TrialFailure {
  Workload workload;
  CheckReport report;
  ShrinkResult shrunk;
};

/// Aggregate outcome of a run (per-regime coverage lives in the global
/// metrics registry under check/...).
struct HarnessResult {
  int trials_run = 0;
  int failed_trials = 0;
  std::int64_t checks_run = 0;
  std::vector<TrialFailure> failures;

  bool ok() const { return failed_trials == 0; }
};

/// Pure derived seed for trial \p trial of base \p seed (splitmix64 mix).
std::uint64_t trial_seed(std::uint64_t seed, int trial);

/// Regenerate the workload of one (seed, trial) pair without checking it.
Workload workload_for_trial(std::uint64_t seed, int trial, const GenLimits& limits = {});

/// Run \p opts.trials conformance trials.  When \p progress is non-null,
/// failures are reported there as they happen.
HarnessResult run_conformance(const HarnessOptions& opts, std::ostream* progress = nullptr);

/// Build the repro artifact for one failing trial.
Repro make_repro(const TrialFailure& failure);

/// Re-run the (shrunk, falling back to original) workload of a repro.
CheckReport replay_repro(const Repro& repro, const CheckOptions& opts = {});

}  // namespace fusecu
