/// \file fig10_mem_util.cpp
/// Regenerates Fig. 10 (and prints Tables II and III on the way):
/// normalized memory access (the paper's bar chart) and utilization (the
/// line chart) for the seven Table II models on the five platforms, plus
/// the headline averages:
///
///   paper: FuseCU saves 63.6% / 62.4% / 38.7% memory access and speeds up
///   1.33x / 1.25x / 1.14x vs TPUv4i / Gemmini / Planaria; UnfCU's savings
///   drop to 42.6% / 41.0% / 4.5% without fusion.

#include <cstdio>
#include <iostream>
#include <map>

#include "common/cli.hpp"
#include "common/math_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "workloads/model_eval.hpp"
#include "obs/obs_session.hpp"

namespace fusecu {
namespace {

void print_table1() {
  std::printf("=== Table I: summary of SOTA dataflow optimizers ===\n");
  TextTable t({"Feature", "Intra-op DSE", "Chimera", "SET", "Flat", "DAT", "This work"});
  t.add_row({"Full tiling & scheduling space", "no", "no", "no", "no", "yes", "yes"});
  t.add_row({"Tiling/scheduling scheme", "searching", "searching", "searching", "searching",
             "searching", "principle-based"});
  t.add_row({"Mapping scheme", "fixed patterns", "micro kernels", "-", "-", "-",
             "principle-based"});
  t.add_row({"Fusion medium", "none", "memory", "memory", "memory", "memory", "compute unit"});
  t.print(std::cout);
  std::printf("(qualitative, reproduced from the paper; the searching column is what\n"
              " src/search reconstructs and bench/fig9_validation compares against)\n\n");
}

void print_table2() {
  std::printf("=== Table II: transformer model parameters ===\n");
  TextTable t({"Model", "# of Heads", "Seq. Length", "Hidden Size", "Batch"});
  for (const ModelConfig& m : table2_models()) {
    t.add_row({m.name, std::to_string(m.heads), std::to_string(m.seq),
               std::to_string(m.hidden), std::to_string(m.batch)});
  }
  t.print(std::cout);
  std::printf("\n");
}

void print_table3() {
  std::printf("=== Table III: spatial architecture attributes ===\n");
  TextTable t({"Platform", "Stationary Flex.", "Tiling Flex.", "Tensor Fusion", "Buffer"});
  for (const ArchSpec& a : all_platforms()) {
    std::string stat;
    for (Stationarity s : a.stationarities) {
      if (!stat.empty()) stat += "/";
      stat += to_string(s);
    }
    t.add_row({a.name, stat, to_string(a.tiling_flex), a.supports_fusion ? "yes" : "no",
               format_bytes(a.buffer_bytes)});
  }
  t.print(std::cout);
  std::printf("\n");
}

void run() {
  print_table1();
  print_table2();
  print_table3();

  std::printf("=== Fig. 10: normalized memory access (bars) and utilization (line) ===\n");
  std::printf("(memory access normalized to TPUv4i per model; one encoder layer, batch 16)\n\n");

  std::map<std::string, std::map<std::string, ModelEval>> results;
  std::vector<ArchSpec> platforms = all_platforms();
  for (const ArchSpec& arch : platforms) {
    for (const ModelEval& e : evaluate_table2(arch)) results[e.model][arch.name] = e;
  }

  TextTable ma({"Model", "TPUv4i", "Gemmini", "Planaria", "UnfCU", "FuseCU"});
  TextTable util({"Model", "TPUv4i", "Gemmini", "Planaria", "UnfCU", "FuseCU"});
  for (const ModelConfig& m : table2_models()) {
    const auto& row = results[m.name];
    const double base = static_cast<double>(row.at("TPUv4i").access);
    std::vector<double> ma_vals, util_vals;
    for (const ArchSpec& a : platforms) {
      ma_vals.push_back(static_cast<double>(row.at(a.name).access) / base);
      util_vals.push_back(row.at(a.name).utilization);
    }
    ma.add_row_numeric(m.name, ma_vals, 3);
    util.add_row_numeric(m.name, util_vals, 3);
  }
  std::printf("--- normalized memory access (lower is better) ---\n");
  ma.print(std::cout);
  std::printf("\n--- utilization: performance normalized to peak FLOPs ---\n");
  util.print(std::cout);

  // Headline averages.
  auto average_saving = [&](const std::string& against, const std::string& target) {
    std::vector<double> savings;
    for (const ModelConfig& m : table2_models()) {
      const auto& row = results[m.name];
      savings.push_back(1.0 - static_cast<double>(row.at(target).access) /
                                  static_cast<double>(row.at(against).access));
    }
    return arith_mean(savings);
  };
  auto average_speedup = [&](const std::string& against, const std::string& target) {
    std::vector<double> speedups;
    for (const ModelConfig& m : table2_models()) {
      const auto& row = results[m.name];
      speedups.push_back(static_cast<double>(row.at(against).cycles) /
                         static_cast<double>(row.at(target).cycles));
    }
    return arith_mean(speedups);
  };

  std::printf("\n--- headline averages (paper values in brackets) ---\n");
  std::printf("FuseCU memory saving vs TPUv4i   : %5.1f%%  [63.6%%]\n",
              100.0 * average_saving("TPUv4i", "FuseCU"));
  std::printf("FuseCU memory saving vs Gemmini  : %5.1f%%  [62.4%%]\n",
              100.0 * average_saving("Gemmini", "FuseCU"));
  std::printf("FuseCU memory saving vs Planaria : %5.1f%%  [38.7%%]\n",
              100.0 * average_saving("Planaria", "FuseCU"));
  std::printf("UnfCU  memory saving vs TPUv4i   : %5.1f%%  [42.6%%]\n",
              100.0 * average_saving("TPUv4i", "UnfCU"));
  std::printf("UnfCU  memory saving vs Gemmini  : %5.1f%%  [41.0%%]\n",
              100.0 * average_saving("Gemmini", "UnfCU"));
  std::printf("UnfCU  memory saving vs Planaria : %5.1f%%  [ 4.5%%]\n",
              100.0 * average_saving("Planaria", "UnfCU"));
  std::printf("FuseCU speedup vs TPUv4i         : %5.2fx  [1.33x]\n",
              average_speedup("TPUv4i", "FuseCU"));
  std::printf("FuseCU speedup vs Gemmini        : %5.2fx  [1.25x]\n",
              average_speedup("Gemmini", "FuseCU"));
  std::printf("FuseCU speedup vs Planaria       : %5.2fx  [1.14x]\n",
              average_speedup("Planaria", "FuseCU"));
}

}  // namespace
}  // namespace fusecu

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  fusecu::ArgParser({}, {}).parse_or_exit(argc, argv, "usage: fig10_mem_util\n");
  fusecu::run();
  return 0;
}
