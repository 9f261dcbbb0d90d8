/// \file decode_inference.cpp
/// Extension bench: autoregressive decode (one generated token against a
/// KV cache).  The workload degenerates to skinny GEMV-shaped matmuls
/// (M = batch, and M = 1 per attention head), the regime the paper's
/// discussion attributes FuseCU's utilization wins to ("models with
/// smaller dimensions benefit from flexible tiling... fusion further
/// boosts utilization by consolidating small MMs").  Sweeps the KV-cache
/// length on LLaMA2 and reports MA, utilization and speedup.

#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "workloads/model_eval.hpp"
#include "obs/obs_session.hpp"

namespace fusecu {
namespace {

void run() {
  std::printf("=== Decode step: LLaMA2, batch 16, KV cache sweep ===\n\n");
  TextTable t({"context", "TPUv4i MA", "FuseCU MA", "MA saving", "TPUv4i util", "FuseCU util",
               "speedup"});
  ModelConfig model = llama2_at_seq(4096);
  for (Index context = 512; context <= 16384; context *= 2) {
    ModelEval tpu = evaluate_decode(model, context, make_tpu_v4i());
    ModelEval fcu = evaluate_decode(model, context, make_fusecu());
    char saving[16], ut[16], uf[16], sp[16];
    std::snprintf(saving, sizeof(saving), "%5.1f%%",
                  100.0 * (1.0 - static_cast<double>(fcu.access) /
                                     static_cast<double>(tpu.access)));
    std::snprintf(ut, sizeof(ut), "%.4f", tpu.utilization);
    std::snprintf(uf, sizeof(uf), "%.4f", fcu.utilization);
    std::snprintf(sp, sizeof(sp), "%.2fx",
                  static_cast<double>(tpu.cycles) / static_cast<double>(fcu.cycles));
    t.add_row({std::to_string(context), std::to_string(tpu.access), std::to_string(fcu.access),
               saving, ut, uf, sp});
  }
  t.print(std::cout);

  std::printf("\n--- GQA extension: LLaMA2-70B-style (64 query / 8 KV heads) ---\n");
  TextTable g({"context", "MHA-width FuseCU MA", "GQA FuseCU MA", "GQA saving"});
  for (Index context = 1024; context <= 8192; context *= 2) {
    ModelConfig gqa = llama2_70b_gqa(4096);
    ModelConfig mha = gqa;
    mha.kv_heads = 0;  // same width, classic MHA
    ModelEval e_mha = evaluate_decode(mha, context, make_fusecu());
    ModelEval e_gqa = evaluate_decode(gqa, context, make_fusecu());
    char saving[16];
    std::snprintf(saving, sizeof(saving), "%5.1f%%",
                  100.0 * (1.0 - static_cast<double>(e_gqa.access) /
                                     static_cast<double>(e_mha.access)));
    g.add_row({std::to_string(context), std::to_string(e_mha.access),
               std::to_string(e_gqa.access), saving});
  }
  g.print(std::cout);

  std::printf("\nDecode is bandwidth-bound everywhere (GEMV reuse is inherently low); the\n"
              "gap comes from weight/KV traffic the flexible dataflow avoids re-reading.\n");
}

}  // namespace
}  // namespace fusecu

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  fusecu::ArgParser({}, {}).parse_or_exit(argc, argv, "usage: decode_inference\n");
  fusecu::run();
  return 0;
}
