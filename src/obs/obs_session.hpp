#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

/// \file obs_session.hpp
/// Shared observability CLI surface for every tool binary.
///
/// Each example and bench binary accepts these extra flags:
///
///   --metrics-out FILE   write the global metrics registry on exit
///                        (JSON by default, CSV when FILE ends in .csv)
///   --trace-out FILE     write the session's chrome-tracing / Perfetto
///                        trace on exit; also installs the span sink, so
///                        per-request span trees (obs/span.hpp) land in
///                        the same trace
///   --bench-out FILE     write a machine-readable benchmark summary on
///                        exit: {"tool", "wall_seconds", "values": {...}}
///                        where values holds whatever the tool reported via
///                        record_bench_value() — the repo's perf-trajectory
///                        format (CI archives BENCH_*.json artifacts)
///   --log-out FILE       structured JSONL log sink (obs/log.hpp)
///   --log-level LEVEL    debug|info|warn|error|off; with --log-out the
///                        sink threshold (default info), without it the
///                        lines go to stderr
///   --flight-out FILE    arm the flight recorder (obs/flight_recorder.hpp)
///                        and install the fatal-signal crash handler
///                        dumping the last spans/logs/metrics to FILE;
///                        tools may also dump there on their own failure
///                        paths (fusecu_check does, per failing trial)
///
/// ObsSession strips these flags from argv *before* the tool's own parser
/// runs (so binaries with strict unknown-option handling keep working),
/// owns the session TraceRecorder, and flushes the outputs on destruction:
///
///   int main(int argc, char** argv) {
///     ObsSession obs(argc, argv);
///     ...
///     simulate_timeline(op, df, arch, 1.0, obs.trace());  // null if unused
///   }

namespace fusecu {

struct ObsOptions {
  std::optional<std::string> metrics_out;
  std::optional<std::string> trace_out;
  std::optional<std::string> bench_out;
  std::optional<std::string> log_out;
  std::optional<std::string> log_level;
  std::optional<std::string> flight_out;
  std::string tool;  ///< argv[0] basename, stamped into the bench summary
};

/// Remove the shared observability flags (also the `--flag=X` form) from
/// argv in place, updating argc.  Throws std::invalid_argument when a flag
/// is present without a value.
ObsOptions extract_obs_options(int& argc, char** argv);

class ObsSession {
 public:
  ObsSession(int& argc, char** argv, std::size_t trace_capacity = 1 << 20);
  explicit ObsSession(ObsOptions options, std::size_t trace_capacity = 1 << 20);
  /// Flushes pending outputs; failures are reported on stderr, not thrown.
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool metrics_enabled() const { return options_.metrics_out.has_value(); }
  bool trace_enabled() const { return options_.trace_out.has_value(); }
  bool bench_enabled() const { return options_.bench_out.has_value(); }
  bool log_enabled() const {
    return options_.log_out.has_value() || options_.log_level.has_value();
  }
  bool flight_enabled() const { return options_.flight_out.has_value(); }
  /// Path passed to --flight-out (empty when absent) — tools that dump the
  /// flight recorder on their own failure paths write here.
  const std::string& flight_out() const {
    static const std::string kEmpty;
    return options_.flight_out ? *options_.flight_out : kEmpty;
  }

  /// Report one named benchmark number (a seconds value, a speedup ratio, a
  /// throughput figure — the name should say which).  Values are written to
  /// --bench-out on flush, in insertion order; re-recording a name
  /// overwrites it.  Cheap no-op storage when --bench-out is absent.
  void record_bench_value(const std::string& name, double value);

  /// The session recorder when tracing was requested, nullptr otherwise —
  /// shaped to pass straight into the simulators' trace parameter.
  TraceRecorder* trace() { return trace_enabled() ? &recorder_ : nullptr; }
  /// Always-valid recorder (records are simply never written when tracing
  /// is off).
  TraceRecorder& recorder() { return recorder_; }

  /// Write the requested outputs now (idempotent; the destructor calls it).
  /// Throws on I/O failure when called explicitly.
  void flush();

 private:
  ObsOptions options_;
  TraceRecorder recorder_;
  std::unique_ptr<TraceSpanSink> span_sink_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, double>> bench_values_;
  bool flushed_ = false;
};

}  // namespace fusecu
