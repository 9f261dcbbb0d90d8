/// \file ablation_fidelity.cpp
/// Model-fidelity ablation: the Fig. 10 speedups under the roofline
/// aggregation vs the tile-schedule replay (double-buffered DMA/compute
/// timeline).  Quantifies deviation 3 of EXPERIMENTS.md: how much of the
/// speedup overshoot comes from the roofline's perfect-overlap assumption.

#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/math_util.hpp"
#include "common/table.hpp"
#include "sim/fidelity.hpp"
#include "workloads/transformer.hpp"
#include "obs/obs_session.hpp"

namespace fusecu {
namespace {

struct ModelCycles {
  CycleCount roofline = 0;
  CycleCount timeline = 0;
};

ModelCycles evaluate(const ModelConfig& model, const ArchSpec& arch) {
  ModelCycles total;
  for (const WorkloadChain& chain : lower_layer(model)) {
    ArchPlan plan = plan_chain_for_arch(chain.graph, arch);
    FidelityPerf f = evaluate_plan_fidelity(chain.graph, plan, arch, chain.count);
    total.roofline += f.roofline_cycles;
    total.timeline += f.timeline_cycles;
    if (plan.fused_pair_count() == 0 && chain.unfused_intermediate_penalty > 0) {
      const CycleCount extra = static_cast<CycleCount>(
          static_cast<double>(chain.unfused_intermediate_penalty * chain.count) *
          arch.bytes_per_element / arch.bandwidth_bytes_per_cycle);
      total.roofline += extra;
      total.timeline += extra;
    }
  }
  return total;
}

void run() {
  std::printf("=== Fidelity ablation: roofline vs tile-schedule replay ===\n\n");
  TextTable t({"Model", "speedup vs TPUv4i (roofline)", "speedup vs TPUv4i (replay)",
               "TPUv4i overlap gap", "FuseCU overlap gap"});
  std::vector<double> roofline_speedups, replay_speedups;
  for (const ModelConfig& m : table2_models()) {
    ModelCycles tpu = evaluate(m, make_tpu_v4i());
    ModelCycles fcu = evaluate(m, make_fusecu());
    const double roofline = static_cast<double>(tpu.roofline) / static_cast<double>(fcu.roofline);
    const double replay = static_cast<double>(tpu.timeline) / static_cast<double>(fcu.timeline);
    roofline_speedups.push_back(roofline);
    replay_speedups.push_back(replay);
    char a[16], b[16], c[16], d[16];
    std::snprintf(a, sizeof(a), "%.2fx", roofline);
    std::snprintf(b, sizeof(b), "%.2fx", replay);
    std::snprintf(c, sizeof(c), "%.3f",
                  static_cast<double>(tpu.timeline) / static_cast<double>(tpu.roofline));
    std::snprintf(d, sizeof(d), "%.3f",
                  static_cast<double>(fcu.timeline) / static_cast<double>(fcu.roofline));
    t.add_row({m.name, a, b, c, d});
  }
  t.print(std::cout);
  std::printf("\naverage speedup: roofline %.2fx, replay %.2fx  [paper: 1.33x]\n",
              arith_mean(roofline_speedups), arith_mean(replay_speedups));
  std::printf("The replay charges startup skew and per-iteration imbalance the roofline\n"
              "ignores (the per-model overlap gaps above); it trims the overshoot only\n"
              "slightly -- most of the residual gap vs the paper's 1.33x comes from the\n"
              "compute/bandwidth balance point, not from overlap modelling (see the\n"
              "bandwidth sensitivity note in DESIGN.md Sec. 5.6).\n");
}

}  // namespace
}  // namespace fusecu

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  fusecu::ArgParser({}, {}).parse_or_exit(argc, argv, "usage: ablation_fidelity\n");
  fusecu::run();
  return 0;
}
