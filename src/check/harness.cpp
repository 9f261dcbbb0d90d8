#include "check/harness.hpp"

#include <algorithm>
#include <future>
#include <utility>

#include "obs/log.hpp"
#include "serve/thread_pool.hpp"

namespace fusecu {

std::uint64_t trial_seed(std::uint64_t seed, int trial) {
  // splitmix64 over (seed, trial): decorrelates adjacent trials and adjacent
  // base seeds, so --seed 1 and --seed 2 share no workload stream prefix.
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(trial) + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Workload workload_for_trial(std::uint64_t seed, int trial, const GenLimits& limits) {
  const std::uint64_t ts = trial_seed(seed, trial);
  Rng rng(ts);
  Workload w = gen_workload(rng, limits);
  w.seed = ts;
  return w;
}

HarnessResult run_conformance(const HarnessOptions& opts, std::ostream* progress) {
  HarnessResult result;
  const int jobs = std::max(1, opts.jobs);

  std::vector<Workload> workloads;
  workloads.reserve(static_cast<std::size_t>(std::max(0, opts.trials)));
  for (int trial = 0; trial < opts.trials; ++trial) {
    workloads.push_back(workload_for_trial(opts.seed, trial, opts.limits));
  }

  std::vector<CheckReport> reports(workloads.size());
  if (jobs > 1) {
    ThreadPool pool(jobs);
    std::vector<std::future<CheckReport>> futures;
    futures.reserve(workloads.size());
    for (const Workload& w : workloads) {
      futures.push_back(pool.submit([&opts, &w]() { return check_workload(w, opts.check); }));
    }
    // Ordered collection: worker completion order never leaks into results.
    for (std::size_t i = 0; i < futures.size(); ++i) reports[i] = futures[i].get();
  } else {
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      reports[i] = check_workload(workloads[i], opts.check);
    }
  }

  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const Workload& w = workloads[i];
    const CheckReport& report = reports[i];
    ++result.trials_run;
    result.checks_run += report.checks_run;
    if (report.ok()) continue;

    ++result.failed_trials;
    log_warn("check", "trial failed",
             {{"trial", std::to_string(i)},
              {"seed", std::to_string(w.seed)},
              {"workload", w.to_string()},
              {"first_check", report.failures.front().check}});
    if (progress) {
      *progress << "FAIL trial " << i << " (seed " << w.seed << "): " << report.summary()
                << "\n";
    }
    // Store and shrink at most max_failures counterexamples; later failing
    // trials are still counted above so the totals stay jobs-independent.
    if (static_cast<int>(result.failures.size()) >= opts.max_failures) continue;
    TrialFailure failure;
    failure.workload = w;
    failure.report = report;
    if (opts.shrink) {
      failure.shrunk = shrink_workload(w, report.failures.front().check, opts.check);
      if (progress) {
        *progress << "  shrunk to " << failure.shrunk.workload.to_string() << " ("
                  << failure.shrunk.attempts << " attempts)\n";
      }
    } else {
      failure.shrunk.workload = w;
      failure.shrunk.check = report.failures.front().check;
    }
    result.failures.push_back(std::move(failure));
  }
  return result;
}

Repro make_repro(const TrialFailure& failure) {
  Repro repro;
  repro.original = failure.workload;
  repro.shrunk = failure.shrunk.workload;
  repro.failures = failure.report.failures;
  repro.tool_version = "fusecu_check/1";
  return repro;
}

CheckReport replay_repro(const Repro& repro, const CheckOptions& opts) {
  return check_workload(repro.shrunk, opts);
}

}  // namespace fusecu
