// fusecu_check — differential conformance harness driver.
//
// Random mode (default): derive one workload per trial from --seed, run the
// full oracle stack (floors, exhaustive search, functional simulation, serve
// byte-identity), shrink any counterexample and optionally dump it as a
// self-contained JSON repro:
//
//   fusecu_check --trials 500 --seed 1 --repro-out repro.json
//
// Replay mode: re-run the shrunk workload of a repro artifact:
//
//   fusecu_check --replay repro.json
//
// Chaos mode (--chaos-trials N): instead of optimizer conformance, run
// seeded fault-injection trials against a real PlanService + NetServer on a
// loopback port — each trial arms a seed-derived fault schedule (short
// reads/writes, EINTR, connection resets at byte offsets, deferred/EMFILE
// accepts, spurious poller wakeups, clock skew, pool stalls) and asserts
// the serving invariants: per-connection response order, id preservation on
// shed, byte identity with the stdin path, graceful drain, no lost
// responses.  Failing fault schedules are shrunk and dumped with
// --chaos-repro-out, replayable with --chaos-replay.  --chaos-bug reorder
// arms an intentional server bug to prove the harness detects violations.
//
//   fusecu_check --chaos-trials 500 --seed 7 --chaos-repro-out chaos.json
//   fusecu_check --chaos-replay chaos.json
//
// Shared observability flags (--metrics-out / --trace-out / --log-out /
// --flight-out) publish the check/... counters: trials, per-buffer-class
// coverage, failures, executor runs vs skips.  With --flight-out, a failing
// run dumps the flight recorder (last spans, log lines and a metrics
// snapshot) as JSON to that path — the same file a crash would dump to.
// Exit status: 0 clean, 1 mismatches found, 2 usage error.

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "check/chaos.hpp"
#include "check/harness.hpp"
#include "common/cli.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs_session.hpp"

using namespace fusecu;

namespace {

const char* const kUsage =
    "usage: fusecu_check [--trials N] [--seed S] [--max-extent N] [--jobs N]\n"
    "       [--repro-out FILE] [--replay FILE]\n"
    "       [--chaos-trials N] [--chaos-max-events N] [--chaos-bug reorder]\n"
    "       [--chaos-reactors N] [--chaos-repro-out FILE] [--chaos-replay FILE]\n"
    "       [--no-exec] [--no-serve] [--no-arch] [--no-shrink]\n"
    "       [--metrics-out FILE] [--trace-out FILE] [--log-out FILE]\n"
    "       [--log-level LEVEL] [--flight-out FILE]\n";

void print_coverage(std::ostream& os) {
  MetricsRegistry& reg = MetricsRegistry::global();
  os << "regime coverage:";
  for (const char* cls : {"tiny", "small", "medium", "large"}) {
    os << " " << cls << "=" << reg.counter(std::string("check/regime/") + cls).value();
  }
  os << "\nexecutor: runs=" << reg.counter("check/executor_runs").value()
     << " skips=" << reg.counter("check/executor_skips").value()
     << "  serve checks=" << reg.counter("check/serve_checks").value() << "\n";
}

/// On failure with --flight-out, replace the (empty) crash dump with a full
/// JSON flight dump: the retained spans and log lines of the failing trials
/// plus a metrics snapshot.
void dump_flight(const ObsSession& obs) {
  if (!obs.flight_enabled()) return;
  std::ofstream os(obs.flight_out());
  if (!os) {
    std::cerr << "fusecu_check: cannot write flight dump to " << obs.flight_out() << "\n";
    return;
  }
  FlightRecorder::global().dump_json(os);
  std::cout << "flight dump written to " << obs.flight_out() << "\n";
}

std::optional<fault::TestBug> parse_chaos_bug(const std::string& name) {
  if (name == "none") return fault::TestBug::kNone;
  if (name == "reorder") return fault::TestBug::kReorderResponses;
  return std::nullopt;
}

int run_chaos_replay(const std::string& path, const ChaosOptions& opts, const ObsSession& obs) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fusecu_check: cannot open chaos replay file " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const ChaosFailure failure = chaos_repro_from_json(buffer.str(), path);

  std::cout << "replaying chaos trial " << failure.trial << " (seed " << failure.seed << ", "
            << failure.shrunk.plan.events.size() << " shrunk fault events)\n";
  const ChaosTrialReport report = replay_chaos_repro(failure, opts);
  if (report.ok()) {
    std::cout << "no violations (the failure did not reproduce)\n";
    return 0;
  }
  for (const ChaosViolation& v : report.violations) {
    std::cout << v.invariant << ": " << v.detail << "\n";
  }
  dump_flight(obs);
  return 1;
}

int run_chaos_mode(const ChaosOptions& opts, const ArgParser& parser, const ObsSession& obs,
                   const char* argv0) {
  std::cout << "fusecu_check: " << opts.trials << " chaos trials, seed " << opts.seed << "\n";
  const ChaosResult result = run_chaos(opts, &std::cout);
  std::cout << result.trials_run << " trials, " << result.checks_run << " checks, "
            << result.failed_trials << " failing trial(s)\n";

  if (!result.ok()) {
    if (auto out = parser.option("--chaos-repro-out")) {
      std::ofstream os(*out);
      if (!os) {
        std::cerr << "fusecu_check: cannot write chaos repro to " << *out << "\n";
      } else {
        os << chaos_repro_to_json(result.failures.front()) << "\n";
        std::cout << "chaos repro written to " << *out << "\n";
      }
    }
    dump_flight(obs);
    std::cout << "replay any failure with: " << argv0 << " --chaos-replay <chaos-repro.json>\n";
    return 1;
  }
  std::cout << "OK\n";
  return 0;
}

int run_replay(const std::string& path, const CheckOptions& check, const ObsSession& obs) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fusecu_check: cannot open replay file " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  Repro repro = repro_from_json(buffer.str(), path);

  std::cout << "replaying " << repro.shrunk.to_string() << " (original "
            << repro.original.to_string() << ")\n";
  CheckReport report = replay_repro(repro, check);
  std::cout << report.summary() << "\n";
  if (!report.ok()) dump_flight(obs);
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs(argc, argv);
  ArgParser parser({"--no-exec", "--no-serve", "--no-arch", "--no-shrink"},
                   {"--trials", "--seed", "--max-extent", "--jobs", "--repro-out", "--replay",
                    "--chaos-trials", "--chaos-max-events", "--chaos-bug", "--chaos-reactors",
                    "--chaos-repro-out", "--chaos-replay"});
  parser.parse_or_exit(argc, argv, kUsage);

  HarnessOptions opts;
  opts.seed = parser.option_uint64("--seed", 1);
  opts.trials = static_cast<int>(parser.option_int("--trials", 100));
  opts.limits.max_extent = parser.option_int("--max-extent", opts.limits.max_extent);
  opts.jobs = static_cast<int>(parser.option_int("--jobs", 1));
  opts.check.with_executor = !parser.has_flag("--no-exec");
  opts.check.with_serve = !parser.has_flag("--no-serve");
  opts.check.with_arch = !parser.has_flag("--no-arch");
  opts.shrink = !parser.has_flag("--no-shrink");

  ChaosOptions chaos;
  chaos.seed = opts.seed;
  chaos.trials = static_cast<int>(parser.option_int("--chaos-trials", 0));
  chaos.max_events = static_cast<int>(parser.option_int("--chaos-max-events", chaos.max_events));
  const Index chaos_reactors = parser.option_int("--chaos-reactors", chaos.reactors);
  if (chaos_reactors < 1) {
    std::cerr << "fusecu_check: --chaos-reactors must be at least 1, got " << chaos_reactors
              << "\n"
              << kUsage;
    return 2;
  }
  chaos.reactors = static_cast<int>(chaos_reactors);
  chaos.shrink = opts.shrink;
  if (auto bug_name = parser.option("--chaos-bug")) {
    const std::optional<fault::TestBug> bug = parse_chaos_bug(*bug_name);
    if (!bug) {
      std::cerr << "fusecu_check: unknown --chaos-bug " << *bug_name << " (try: reorder)\n"
                << kUsage;
      return 2;
    }
    chaos.bug = *bug;
  }

  try {
    if (auto chaos_replay = parser.option("--chaos-replay")) {
      return run_chaos_replay(*chaos_replay, chaos, obs);
    }
    if (chaos.trials > 0) {
      return run_chaos_mode(chaos, parser, obs, argv[0]);
    }
    if (auto replay = parser.option("--replay")) {
      return run_replay(*replay, opts.check, obs);
    }

    std::cout << "fusecu_check: " << opts.trials << " trials, seed " << opts.seed << "\n";
    HarnessResult result = run_conformance(opts, &std::cout);

    std::cout << result.trials_run << " trials, " << result.checks_run << " checks, "
              << result.failed_trials << " failing trial(s)\n";
    print_coverage(std::cout);

    if (!result.ok()) {
      if (auto out = parser.option("--repro-out")) {
        std::ofstream os(*out);
        if (!os) {
          std::cerr << "fusecu_check: cannot write repro to " << *out << "\n";
        } else {
          os << repro_to_json(make_repro(result.failures.front())) << "\n";
          std::cout << "repro written to " << *out << "\n";
        }
      }
      dump_flight(obs);
      std::cout << "replay any failure with: " << argv[0]
                << " --replay <repro.json>, or regenerate it from its reported seed\n";
      return 1;
    }
    std::cout << "OK\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fusecu_check: " << e.what() << "\n";
    return 2;
  }
}
