#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/fault.hpp"

/// \file chaos.hpp
/// Seeded chaos trials for the net/serve stack (`fusecu_check
/// --chaos-trials`): each trial arms a seed-derived FaultPlan
/// (common/fault.hpp), boots a real PlanService + NetServer on a loopback
/// port, drives it with pipelined multi-connection client threads, drains,
/// and asserts the PR 7 serving invariants:
///
///   * per-connection response order: the responses each client read are
///     exactly a prefix of its request ids, in order — shed responses
///     included, so id preservation under overload is covered too;
///   * no lost responses: a connection may come up short only when the plan
///     schedules a connection-killing fault (ECONNRESET/EPIPE), and the
///     number of cut connections is bounded by the plan's reset events;
///   * byte identity: every ok=true response equals, byte for byte, what a
///     fresh PlanService::serve_stream produces for the same request line;
///   * overload shape: every non-ok response on a healthy run is the
///     structured "overloaded" shed response carrying the request id;
///   * graceful drain: request_drain() completes within a watchdog and
///     every accepted connection is closed;
///   * shed accounting and the watchdog: when no connection was cut and the
///     drain completed, the sheds the clients read match the server's shed
///     counter exactly, and a plan whose worker hangs all last at least
///     twice the server watchdog *must* have a reactor stall reported when
///     such a hang fired (the hung plan runs on its reactor) — the watchdog
///     firing is deterministic per plan;
///   * the request ledger, on the same trials: the trial's serve/requests
///     plus the server's sheds equal its responses, and every decoded
///     request line got exactly one response;
///   * the cache ledger, on the same trials: every request line made one
///     counted cache lookup (intra + fused hits + misses), and every miss
///     that was planned (not shed, not failed) was stored exactly once, as
///     an insertion or a serve/duplicate_plans.
///
/// Determinism. The per-trial seed, fault plan and client scripts are pure
/// functions of (base seed, trial index) via the same splitmix64 derivation
/// as the conformance harness, and the progress report prints only
/// plan-derived facts — two runs with the same flags produce byte-identical
/// reports even though thread scheduling (and hence which events fire)
/// differs.  Which-events-fired counts are published to the metrics
/// registry under chaos/... instead.
///
/// On failure the fault schedule is minimized PR 3-style (drop events,
/// halve triggers/magnitudes; greedy first-accept to a fixpoint, keeping a
/// candidate exactly when the re-run still violates the same invariant) and
/// packaged as a self-contained JSON repro replayable with --chaos-replay.
///
/// Trials run strictly serially: the fault injector is process-global.

namespace fusecu {

/// Configuration of one chaos run.
struct ChaosOptions {
  std::uint64_t seed = 1;  ///< base seed; trial i uses trial_seed(seed, i)
  int trials = 100;
  int max_events = 12;     ///< fault-plan size cap per trial
  bool shrink = true;      ///< minimize failing fault schedules
  /// Cap on stored (and shrunk) failures; trials beyond it still run and
  /// are still counted.
  int max_failures = 4;
  /// Intentional server bug to arm (harness self-test; see fault::TestBug).
  fault::TestBug bug = fault::TestBug::kNone;
  /// Per-trial watchdog for client reads and the drain join.
  std::int64_t watchdog_ms = 20'000;
  /// Server-side supervision budget (NetServerOptions::watchdog_ms) armed
  /// in every trial: reactor heartbeat stalls are reported.  Generated
  /// worker hangs (100-300 ms) always last twice this budget, so the
  /// watchdog-fires invariant is decidable from the plan.  0 = unsupervised.
  std::int64_t server_watchdog_ms = 40;
  /// Reactor shards for the trial server (NetServerOptions::reactors, at
  /// least 1).  The invariants are reactor-count-independent, so the same
  /// trials double as the multi-reactor drain/order suite.
  int reactors = 1;
};

/// One violated serving invariant.
struct ChaosViolation {
  std::string invariant;  ///< stable id, e.g. "net/response_order"
  std::string detail;
};

/// Outcome of a single trial.
struct ChaosTrialReport {
  std::vector<ChaosViolation> violations;
  int checks_run = 0;  ///< invariant families evaluated (fixed per trial)
  bool ok() const { return violations.empty(); }
};

/// Greedy fault-schedule minimization (mirrors check/shrink.hpp).
struct ChaosShrinkResult {
  fault::FaultPlan plan;  ///< smallest schedule still violating `invariant`
  std::string invariant;
  int attempts = 0;  ///< candidate plans re-run
  int accepted = 0;  ///< transformations that kept the violation
};

/// One failing trial with its minimized fault schedule.
struct ChaosFailure {
  int trial = 0;
  std::uint64_t seed = 0;  ///< derived trial seed (regenerates the scripts)
  int reactors = 1;        ///< server shards the failure was found at
  fault::FaultPlan plan;
  ChaosShrinkResult shrunk;
  std::vector<ChaosViolation> violations;
};

/// Aggregate outcome of a chaos run.
struct ChaosResult {
  int trials_run = 0;
  int failed_trials = 0;
  std::int64_t checks_run = 0;
  std::vector<ChaosFailure> failures;
  bool ok() const { return failed_trials == 0; }
};

/// Run one trial: arm \p plan, serve the scripts derived from
/// \p trial_seed, check every invariant.  Leaves the injector disarmed.
ChaosTrialReport run_chaos_trial(std::uint64_t trial_seed, const fault::FaultPlan& plan,
                                 const ChaosOptions& opts = {});

/// Run \p opts.trials chaos trials.  When \p progress is non-null, one
/// deterministic line is printed per trial plus failure details.
ChaosResult run_chaos(const ChaosOptions& opts, std::ostream* progress = nullptr);

/// Minimize \p failing for trial \p trial_seed, preserving a violation of
/// \p invariant (empty: any violation).  If the violation does not
/// reproduce, the original plan is returned with accepted == 0.
ChaosShrinkResult shrink_fault_plan(std::uint64_t trial_seed, const fault::FaultPlan& failing,
                                    const std::string& invariant, const ChaosOptions& opts,
                                    int max_passes = 6);

/// Self-contained JSON repro artifact for one failure (schema
/// fusecu_chaos_repro/1) and its inverse.
std::string chaos_repro_to_json(const ChaosFailure& failure);
ChaosFailure chaos_repro_from_json(const std::string& text,
                                   const std::string& source = "<chaos-repro>");

/// Re-run a repro (shrunk plan when present, else the original).
ChaosTrialReport replay_chaos_repro(const ChaosFailure& failure, const ChaosOptions& opts = {});

}  // namespace fusecu
