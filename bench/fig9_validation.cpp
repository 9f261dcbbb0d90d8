/// \file fig9_validation.cpp
/// Regenerates Fig. 9: memory access of the principle-optimized dataflow
/// validated against the DAT-style searching optimizer across buffer sizes
/// from 32 KB to 32 MB.
///
/// For each representative MM layer (drawn from the Table II models) and
/// each buffer size, the bench prints MA normalized to the operator's ideal
/// lower bound (every tensor accessed once) for:
///   * principles  — one-shot analytical optimum (the paper's line);
///   * DAT (GA)    — genetic-algorithm search (the paper's points);
///   * exhaustive  — ground-truth grid search.
/// The expected shape: principles == exhaustive everywhere; the GA
/// occasionally lands slightly above (it "does not guarantee global
/// optimization"), never below.

#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "principles/principle_optimizer.hpp"
#include "search/annealing.hpp"
#include "search/dat_optimizer.hpp"
#include "workloads/transformer.hpp"
#include "obs/obs_session.hpp"

namespace fusecu {
namespace {

struct Layer {
  const char* name;
  Index m, k, l;
};

void run(std::uint64_t seed) {
  // Representative MM layers: projection and attention ops from BERT and
  // LLaMA2, plus the paper's worked example.
  const Layer layers[] = {
      {"BERT.proj (16384x768x768)", 16384, 768, 768},
      {"BERT.score (1024x64x1024)", 1024, 64, 1024},
      {"LLaMA2.score (4096x128x4096)", 4096, 128, 4096},
      {"LLaMA2.ffn (65536x4096x16384)", 65536, 4096, 16384},
      {"paper-example (1024x768x768)", 1024, 768, 768},
  };

  std::printf("=== Fig. 9: normalized memory access, principles vs DAT ===\n");
  std::printf("(normalized to the ideal lower bound; lower is better, 1.0 is optimal-infinite-buffer)\n\n");

  DatParams dat_params;
  dat_params.ga.generations = 60;
  dat_params.seed = seed;
  DatOptimizer dat(dat_params);

  for (const Layer& layer : layers) {
    TensorOp op = TensorOp::matmul(layer.name, layer.m, layer.k, layer.l);
    const double ideal = static_cast<double>(op.ideal_min_access());
    TextTable table({"buffer", "class", "principles (line)", "DAT-GA (points)", "SA",
                     "exhaustive", "principles rule"});
    for (std::int64_t kb = 32; kb <= 32 * 1024; kb *= 4) {
      const BufferSize bs = kb * 1024 / 2;  // bytes -> bf16 elements
      IntraOptResult ours = optimize_intra(op, bs);
      auto ga = dat.optimize_intra(op, bs);
      auto sa = sa_intra(op, bs, SaParams{}, seed);
      auto exact = exhaustive_intra(op, bs);
      char ours_s[32], ga_s[32], sa_s[32], exact_s[32];
      std::snprintf(ours_s, sizeof(ours_s), "%.4f", static_cast<double>(ours.access.total) / ideal);
      std::snprintf(ga_s, sizeof(ga_s), "%.4f",
                    ga ? static_cast<double>(ga->access.total) / ideal : -1.0);
      std::snprintf(sa_s, sizeof(sa_s), "%.4f",
                    sa ? static_cast<double>(sa->access.total) / ideal : -1.0);
      std::snprintf(exact_s, sizeof(exact_s), "%.4f",
                    exact ? static_cast<double>(exact->access.total) / ideal : -1.0);
      table.add_row({format_bytes(kb * 1024), to_string(ours.buffer_class), ours_s, ga_s, sa_s,
                     exact_s, ours.rule});
    }
    std::printf("--- %s ---\n", layer.name);
    table.print(std::cout);
    std::printf("\n");
  }

  // Fused-pair validation: the attention pair, principles vs DAT fused GA.
  std::printf("--- fused attention pair (1024, 64, 1024, 64): principles vs DAT ---\n");
  FusedPair pair = FusedPair::make(1024, 64, 1024, 64);
  const double fused_ideal = static_cast<double>(pair.ideal_min_access());
  TextTable table({"buffer", "principles", "DAT-GA", "exhaustive"});
  for (std::int64_t kb = 32; kb <= 32 * 1024; kb *= 4) {
    const BufferSize bs = kb * 1024 / 2;
    auto ours = optimize_fused_pair(pair, bs);
    auto ga = dat.optimize_pair(pair, bs);
    auto exact = exhaustive_fused(pair, bs);
    char ours_s[32], ga_s[32], exact_s[32];
    std::snprintf(ours_s, sizeof(ours_s), "%.4f",
                  ours ? static_cast<double>(ours->access.total) / fused_ideal : -1.0);
    std::snprintf(ga_s, sizeof(ga_s), "%.4f",
                  ga ? static_cast<double>(ga->access.total) / fused_ideal : -1.0);
    std::snprintf(exact_s, sizeof(exact_s), "%.4f",
                  exact ? static_cast<double>(exact->access.total) / fused_ideal : -1.0);
    table.add_row({format_bytes(kb * 1024), ours_s, ga_s, exact_s});
  }
  table.print(std::cout);

  // End-to-end planning: whole BERT-layer chains, principle planner vs the
  // DAT reconstruction (searched costs + the same partitioning DP).
  std::printf("\n--- whole-layer chains: principle planner vs DAT planner ---\n");
  TextTable chains({"chain", "buffer", "principles MA", "DAT MA", "both fuse?"});
  for (const WorkloadChain& chain : lower_layer(table2_models()[0])) {
    if (chain.graph.num_ops() < 2) continue;
    for (std::int64_t kb : {128, 512}) {
      const BufferSize bs = kb * 1024 / 2;
      FusionPlan ours = plan_chain(chain.graph, bs, PlannerPolicy::kPrinciple4);
      FusionPlan theirs = dat.plan_chain(chain.graph, bs);
      chains.add_row({chain.label, format_bytes(kb * 1024), format_count(ours.total_access),
                      format_count(theirs.total_access),
                      ours.fused_pair_count() == theirs.fused_pair_count() ? "yes" : "NO"});
    }
  }
  chains.print(std::cout);
  std::printf("expected: the one-shot planner never exceeds the searched plan and both\n"
              "reach the same fusion decisions at these buffer sizes.\n");
}

}  // namespace
}  // namespace fusecu

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  try {
    fusecu::ArgParser args({}, {"--seed"});
    args.parse_or_exit(argc, argv, "usage: fig9_validation [--seed N]\n");
    fusecu::run(args.option_uint64("--seed", 0x5eed));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
