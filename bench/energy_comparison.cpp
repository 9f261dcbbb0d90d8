/// \file energy_comparison.cpp
/// Energy counterpart of Fig. 10 (extension bench — the paper motivates
/// dataflow optimization by memory access being "a key factor in energy
/// consumption" but reports only accesses; this bench closes that loop
/// with the first-order per-access energy model).  Reports per-model
/// energy normalized to TPUv4i and the data-movement share of each
/// platform's energy.

#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/math_util.hpp"
#include "common/table.hpp"
#include "workloads/model_eval.hpp"
#include "obs/obs_session.hpp"

namespace fusecu {
namespace {

void run() {
  std::printf("=== Energy comparison (28nm first-order model, one layer, batch 16) ===\n\n");
  std::vector<ArchSpec> platforms = all_platforms();

  TextTable energy({"Model", "TPUv4i", "Gemmini", "Planaria", "UnfCU", "FuseCU"});
  TextTable movement({"Model", "TPUv4i", "Gemmini", "Planaria", "UnfCU", "FuseCU"});
  std::vector<double> savings;
  for (const ModelConfig& m : table2_models()) {
    std::vector<ModelEval> evals;
    for (const ArchSpec& a : platforms) evals.push_back(evaluate_model(m, a));
    const double base = evals[0].energy_pj;
    std::vector<double> e_vals, m_vals;
    for (const ModelEval& e : evals) {
      e_vals.push_back(e.energy_pj / base);
      m_vals.push_back(e.energy_movement_fraction);
    }
    savings.push_back(1.0 - evals.back().energy_pj / base);
    energy.add_row_numeric(m.name, e_vals, 3);
    movement.add_row_numeric(m.name, m_vals, 3);
  }
  std::printf("--- energy normalized to TPUv4i (lower is better) ---\n");
  energy.print(std::cout);
  std::printf("\n--- data-movement share of energy ---\n");
  movement.print(std::cout);
  std::printf("\naverage FuseCU energy saving vs TPUv4i: %.1f%%\n", 100.0 * arith_mean(savings));
  std::printf("(data movement dominates the rigid platforms' energy — the paper's premise)\n");
}

}  // namespace
}  // namespace fusecu

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  fusecu::ArgParser({}, {}).parse_or_exit(argc, argv, "usage: energy_comparison\n");
  fusecu::run();
  return 0;
}
