/// \file fig11_llama_seqlen.cpp
/// Regenerates Fig. 11: LLaMA2 normalized memory access and utilization
/// across sequence lengths 256 .. 16K on the five platforms.  Expected
/// shape: FuseCU's memory-access reduction *grows* with sequence length
/// (the attention intermediate scales as s^2 while external tensors scale
/// as s), and utilization stays robust at both ends.

#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "workloads/model_eval.hpp"
#include "obs/obs_session.hpp"

namespace fusecu {
namespace {

void run() {
  std::printf("=== Fig. 11: LLaMA2 across sequence lengths (256 .. 16K) ===\n");
  std::printf("(memory access normalized to TPUv4i at the same sequence length)\n\n");

  std::vector<ArchSpec> platforms = all_platforms();
  TextTable ma({"seq", "TPUv4i", "Gemmini", "Planaria", "UnfCU", "FuseCU", "FuseCU saving"});
  TextTable util({"seq", "TPUv4i", "Gemmini", "Planaria", "UnfCU", "FuseCU"});
  for (Index seq = 256; seq <= 16384; seq *= 2) {
    ModelConfig model = llama2_at_seq(seq);
    std::vector<ModelEval> evals;
    for (const ArchSpec& a : platforms) evals.push_back(evaluate_model(model, a));
    const double base = static_cast<double>(evals[0].access);

    std::vector<double> ma_vals, util_vals;
    for (const ModelEval& e : evals) {
      ma_vals.push_back(static_cast<double>(e.access) / base);
      util_vals.push_back(e.utilization);
    }
    ma_vals.push_back(1.0 - static_cast<double>(evals.back().access) / base);
    ma.add_row_numeric(std::to_string(seq), ma_vals, 3);
    util.add_row_numeric(std::to_string(seq), util_vals, 3);
  }
  std::printf("--- normalized memory access ---\n");
  ma.print(std::cout);
  std::printf("\n--- utilization ---\n");
  util.print(std::cout);
  std::printf("\nExpected: the FuseCU saving column increases with sequence length\n"
              "(greater memory-access reduction for longer sequences, Sec. V-C).\n");
}

}  // namespace
}  // namespace fusecu

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  fusecu::ArgParser({}, {}).parse_or_exit(argc, argv, "usage: fig11_llama_seqlen\n");
  fusecu::run();
  return 0;
}
