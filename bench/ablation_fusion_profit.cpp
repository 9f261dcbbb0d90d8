/// \file ablation_fusion_profit.cpp
/// Design-choice ablations behind Principles 1-4:
///
///  1. The Single/Two-NRA shift point: sweeping buffer size across
///     D_min^2/4 .. D_min^2/2 and reporting which regime the optimizer
///     realizes (Sec. III-A4's shift band).
///  2. Principle 4 prediction accuracy: same-regime prediction vs measured
///     fusion profitability across shapes and buffer sizes, including the
///     deep-tiny corner where attention-shaped fusion stops paying
///     (documented deviation, see EXPERIMENTS.md).
///  3. Fusion profit vs buffer size for the attention pair: where each
///     fused pattern (tile fusion / untile / resident) takes over.

#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "fusion/fusion_principles.hpp"
#include "obs/obs_session.hpp"

namespace fusecu {
namespace {

void shift_point_sweep() {
  std::printf("--- ablation 1: Single->Two-NRA shift band (op 4096 x 256 x 4096) ---\n");
  TensorOp op = TensorOp::matmul("shift", 4096, 256, 4096);
  const Index dmin2 = 256 * 256;
  TextTable t({"buffer (elems)", "BS / Dmin^2", "class", "realized regime", "rule"});
  for (double frac : {0.10, 0.20, 0.25, 0.30, 0.40, 0.50, 0.60, 1.00}) {
    const BufferSize bs = static_cast<BufferSize>(frac * dmin2);
    IntraOptResult r = optimize_intra(op, bs);
    char frac_s[16];
    std::snprintf(frac_s, sizeof(frac_s), "%.2f", frac);
    t.add_row({std::to_string(bs), frac_s, to_string(r.buffer_class), to_string(r.nra),
               r.rule});
  }
  t.print(std::cout);
  std::printf("expected: the regime flips from Single- to Two-NRA inside [0.25, 0.50].\n\n");
}

void principle4_accuracy() {
  std::printf("--- ablation 2: Principle 4 prediction vs measured profitability ---\n");
  const struct {
    const char* name;
    Index m, k, l, n;
  } pairs[] = {
      {"attention (1024,64)", 1024, 64, 1024, 64},
      {"attention (4096,128)", 4096, 128, 4096, 128},
      {"ffn-ish", 4096, 768, 3072, 768},
      {"square", 512, 512, 512, 512},
      {"asymmetric", 64, 4096, 64, 8},
  };
  int agree = 0, total = 0;
  TextTable t({"pair", "buffer", "same regime?", "profitable?", "agree"});
  for (const auto& p : pairs) {
    FusedPair pair = FusedPair::make(p.m, p.k, p.l, p.n);
    for (std::int64_t kb : {32, 128, 512, 2048, 8192}) {
      const BufferSize bs = kb * 1024 / 2;
      FusionDecision d = decide_fusion(pair, bs);
      // Principle 4's claim: same regime -> fusing does not lose.
      const bool weakly_profitable = d.fusable && d.fused_ma <= d.unfused_ma;
      const bool ok = d.principle4_predicts == weakly_profitable ||
                      (d.principle4_predicts && weakly_profitable);
      agree += ok ? 1 : 0;
      ++total;
      t.add_row({p.name, format_bytes(kb * 1024), d.principle4_predicts ? "yes" : "no",
                 !d.fusable ? "n/a" : (d.profitable ? "yes" : (weakly_profitable ? "tie" : "no")),
                 ok ? "." : "MISS"});
    }
  }
  t.print(std::cout);
  std::printf("prediction agreement: %d / %d\n\n", agree, total);
}

void fusion_profit_sweep() {
  std::printf("--- ablation 3: attention-pair fused patterns across buffer sizes ---\n");
  FusedPair pair = FusedPair::make(1024, 64, 1024, 64);
  TextTable t({"buffer", "unfused MA", "fused MA", "saving", "winning pattern"});
  for (std::int64_t kb = 8; kb <= 32 * 1024; kb *= 4) {
    const BufferSize bs = kb * 1024 / 2;
    FusionDecision d = decide_fusion(pair, bs);
    char saving[16];
    std::snprintf(saving, sizeof(saving), "%5.1f%%",
                  d.fusable ? 100.0 * (1.0 - static_cast<double>(d.fused_ma) /
                                                 static_cast<double>(d.unfused_ma))
                            : 0.0);
    t.add_row({format_bytes(kb * 1024), format_count(d.unfused_ma),
               d.fusable ? format_count(d.fused_ma) : "-", saving,
               d.fused ? d.fused->chosen.rule : "-"});
  }
  t.print(std::cout);
  std::printf("expected: tile fusion in small buffers, untile patterns in the middle,\n"
              "resident-C at the top; saving grows with buffer until it saturates.\n");
}

void register_level_2n() {
  std::printf("--- ablation 4: the 2N rule at the register level (Sec. IV-B) ---\n");
  std::printf("With BS = N^2 PE registers, untiling (Two-/Three-NRA) should be optimal\n"
              "exactly when D_min < 2N; FuseCU therefore sizes its untiled-dimension\n"
              "support at 2N.  N = 128 -> threshold 256.\n\n");
  const Index array_n = 128;
  const BufferSize registers = array_n * array_n;
  TextTable t({"D_min", "D_min / 2N", "realized regime", "untiled dim used"});
  for (Index dmin : {Index{64}, Index{128}, Index{192}, Index{255}, Index{256}, Index{320},
                     Index{512}, Index{1024}}) {
    TensorOp op = TensorOp::matmul("reg", 4096, dmin, 4096);
    IntraOptResult r = optimize_intra(op, registers);
    bool untiled = false;
    for (int d = 0; d < 3; ++d) untiled = untiled || r.dataflow.untiled(op, d);
    char frac[16];
    std::snprintf(frac, sizeof(frac), "%.2f", static_cast<double>(dmin) / (2.0 * array_n));
    t.add_row({std::to_string(dmin), frac, to_string(r.nra), untiled ? "yes" : "no"});
  }
  t.print(std::cout);
  std::printf("expected: untiling is guaranteed below sqrt(2)*N ~ 181, impossible above\n"
              "2N = 256, and flips somewhere in between (the Sec. III-A4 ambiguity band);\n"
              "2N is thus the upper bound FuseCU's adaptive array sizing must support.\n");
}

}  // namespace
}  // namespace fusecu

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  fusecu::ArgParser({}, {}).parse_or_exit(argc, argv, "usage: ablation_fusion_profit\n");
  std::printf("=== Ablations: principles and fusion profitability ===\n\n");
  fusecu::shift_point_sweep();
  fusecu::principle4_accuracy();
  fusecu::fusion_profit_sweep();
  fusecu::register_level_2n();
  return 0;
}
