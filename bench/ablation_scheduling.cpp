/// \file ablation_scheduling.cpp
/// Scheduling ablation: ganged execution (all four compute units on one
/// operator, the Fig. 10 aggregation) versus job-level scheduling (each
/// per-head instance on one unit, four heads in flight, LPT-balanced,
/// shared DMA).  Job-level scheduling is how multi-tenant arrays like
/// Planaria actually run small operators; the comparison shows when the
/// distinction matters.

#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/cu_scheduler.hpp"
#include "sim/perf_model.hpp"
#include "workloads/transformer.hpp"
#include "obs/obs_session.hpp"

namespace fusecu {
namespace {

void run() {
  std::printf("=== Scheduling ablation: ganged vs per-unit job scheduling ===\n\n");
  TextTable t({"model", "chain", "copies", "ganged cycles", "per-unit cycles", "balance",
               "per-unit / ganged"});
  for (const ModelConfig& m : {table2_models()[0], table2_models()[5]}) {  // BERT, LLaMA2
    for (const ArchSpec& arch : {make_fusecu()}) {
      for (const WorkloadChain& chain : lower_layer(m)) {
        ArchPlan plan = plan_chain_for_arch(chain.graph, arch);
        PlanPerf ganged = evaluate_plan_perf(plan, arch, chain.count);
        CuScheduleResult per_unit = schedule_plan_per_unit(plan, arch, chain.count);
        char balance[16], ratio[16];
        std::snprintf(balance, sizeof(balance), "%.3f", per_unit.load_balance());
        std::snprintf(ratio, sizeof(ratio), "%.2f",
                      static_cast<double>(per_unit.makespan) /
                          static_cast<double>(ganged.cycles));
        t.add_row({m.name, chain.label, std::to_string(chain.count),
                   std::to_string(ganged.cycles), std::to_string(per_unit.makespan), balance,
                   ratio});
      }
    }
  }
  t.print(std::cout);
  std::printf("\nWhen many identical per-head jobs exist, per-unit scheduling matches the\n"
              "ganged model (same aggregate throughput, perfectly balanced); single big\n"
              "operators see the ganged model's intra-operator parallelism instead.\n");
}

}  // namespace
}  // namespace fusecu

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  fusecu::ArgParser({}, {}).parse_or_exit(argc, argv, "usage: ablation_scheduling\n");
  fusecu::run();
  return 0;
}
