/// \file fusecu_eval.cpp
/// Config-driven evaluation tool: run any subset of models on any subset of
/// platforms and emit a machine-readable report.
///
///   fusecu_eval --config eval.cfg [--format csv|json] [--decode CONTEXT]
///               [--metrics-out m.json] [--trace-out t.json]
///
/// With no --config, evaluates all of Table II on all five platforms at the
/// default configuration.  --decode switches to the autoregressive decode
/// workload with the given KV-cache length.
///
/// --metrics-out dumps the global metrics registry (optimizer-phase
/// wall-time histograms, planner/search counters) as JSON (CSV when the
/// path ends in .csv).  --trace-out additionally replays the first
/// evaluated (platform, model) pair's representative matmul through the
/// timeline simulator and writes a Perfetto-loadable trace with DMA/compute
/// duration events and counter tracks (busy cycles, traffic vs. the
/// analytical optimum, buffer occupancy).
///
/// Example configuration:
///   buffer    = 512KB
///   platforms = TPUv4i, FuseCU
///   models    = BERT, tiny
///   [model tiny]
///   heads = 8
///   seq = 512
///   hidden = 512

#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/cli.hpp"
#include "fusion/graph_planner.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_session.hpp"
#include "obs/span.hpp"
#include "principles/principle_optimizer.hpp"
#include "sim/timeline.hpp"
#include "workloads/report.hpp"
#include "workloads/run_config.hpp"

using namespace fusecu;

namespace {

/// Replay a representative matmul of (model, arch) — the first matmul of
/// the first lowered chain, under its principle-optimal dataflow — through
/// the timeline simulator so the trace shows real DMA/compute interleaving
/// and counter tracks.
void record_representative_trace(const ModelConfig& model, const ArchSpec& arch,
                                 TraceRecorder& trace) {
  for (const WorkloadChain& chain : lower_layer(model)) {
    for (int i = 0; i < chain.graph.num_ops(); ++i) {
      const TensorOp& op = chain.graph.op(i);
      if (!is_matmul_shaped(op)) continue;
      const BufferSize bs = arch.buffer_bytes / arch.bytes_per_element;
      IntraOptResult opt = optimize_intra(op, bs);
      TimelineResult r = simulate_timeline(op, opt.dataflow, arch, 1.0, &trace);
      // Anchor track: the analytical communication lower bound the
      // traffic_elements counter should approach.
      trace.record_counter("analytical_lower_bound_elements", static_cast<double>(r.cycles),
                           static_cast<double>(opt.access.total));
      return;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ObsSession obs(argc, argv);
    ArgParser args({}, {"--config", "--format", "--decode"});
    args.parse_or_exit(argc, argv,
                       "usage: fusecu_eval [--config FILE] [--format csv|json] [--decode CONTEXT]\n"
                       "                   [--metrics-out FILE] [--trace-out FILE]\n");

    RunConfig config;
    if (auto path = args.option("--config")) {
      std::ifstream in(*path);
      if (!in) {
        std::fprintf(stderr, "cannot open config file: %s\n", path->c_str());
        return 1;
      }
      config = parse_run_config(in);
    } else {
      config.models = table2_models();
    }
    const std::string format = args.option("--format").value_or("csv");
    const Index decode_context = args.option_int("--decode", 0);

    std::vector<ModelEval> evals;
    for (const ArchSpec& arch : resolve_platforms(config)) {
      Histogram& timing = MetricsRegistry::global().histogram("time/evaluate/" + arch.name);
      for (const ModelConfig& model : config.models) {
        ScopedSpan span("evaluate", timing);
        evals.push_back(decode_context > 0 ? evaluate_decode(model, decode_context, arch)
                                           : evaluate_model(model, arch));
        // Gate on engine events, not empty(): request spans flow into the
        // recorder via the span sink and must not suppress the one-shot
        // representative timeline.
        if (obs.trace_enabled() && obs.recorder().events().empty()) {
          record_representative_trace(model, arch, obs.recorder());
        }
      }
    }
    MetricsRegistry::global().counter("eval/evaluations").add(
        static_cast<std::int64_t>(evals.size()));

    if (format == "csv") {
      write_evaluation_csv(std::cout, evals);
    } else if (format == "json") {
      write_evaluation_json(std::cout, evals);
    } else {
      std::fprintf(stderr, "unknown --format %s (use csv or json)\n", format.c_str());
      return 1;
    }
    obs.flush();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
