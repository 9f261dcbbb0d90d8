/// \file ablation_flexibility.cpp
/// Contribution waterfall: how much of FuseCU's gain comes from each
/// architecture attribute (Table III), measured by walking the platform
/// ladder TPUv4i -> +stationary flexibility (Gemmini) -> +tiling
/// flexibility (UnfCU) -> +tensor fusion (FuseCU) on every Table II model,
/// plus a buffer-size sensitivity sweep of the headline saving.

#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/math_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "workloads/model_eval.hpp"
#include "obs/obs_session.hpp"

namespace fusecu {
namespace {

void waterfall() {
  std::printf("--- attribute waterfall: normalized memory access per model ---\n");
  TextTable t({"Model", "TPUv4i (base)", "+stationary (Gemmini)", "+tiling (UnfCU)",
               "+fusion (FuseCU)"});
  for (const ModelConfig& m : table2_models()) {
    const double base = static_cast<double>(evaluate_model(m, make_tpu_v4i()).access);
    std::vector<double> vals = {
        1.0,
        static_cast<double>(evaluate_model(m, make_gemmini()).access) / base,
        static_cast<double>(evaluate_model(m, make_unfcu()).access) / base,
        static_cast<double>(evaluate_model(m, make_fusecu()).access) / base,
    };
    t.add_row_numeric(m.name, vals, 3);
  }
  t.print(std::cout);
  std::printf("\n");
}

void buffer_sensitivity() {
  std::printf("--- buffer-size sensitivity of the headline saving (avg of Table II) ---\n");
  TextTable t({"buffer", "FuseCU vs TPUv4i", "FuseCU vs Planaria", "UnfCU vs TPUv4i"});
  for (std::int64_t kb = 64; kb <= 8 * 1024; kb *= 2) {
    std::vector<double> vs_tpu, vs_pla, unf_vs_tpu;
    for (const ModelConfig& m : table2_models()) {
      const double tpu = static_cast<double>(evaluate_model(m, make_tpu_v4i(kb * 1024)).access);
      const double pla = static_cast<double>(evaluate_model(m, make_planaria(kb * 1024)).access);
      const double unf = static_cast<double>(evaluate_model(m, make_unfcu(kb * 1024)).access);
      const double fcu = static_cast<double>(evaluate_model(m, make_fusecu(kb * 1024)).access);
      vs_tpu.push_back(1.0 - fcu / tpu);
      vs_pla.push_back(1.0 - fcu / pla);
      unf_vs_tpu.push_back(1.0 - unf / tpu);
    }
    char a[16], b[16], c[16];
    std::snprintf(a, sizeof(a), "%5.1f%%", 100.0 * arith_mean(vs_tpu));
    std::snprintf(b, sizeof(b), "%5.1f%%", 100.0 * arith_mean(vs_pla));
    std::snprintf(c, sizeof(c), "%5.1f%%", 100.0 * arith_mean(unf_vs_tpu));
    t.add_row({format_bytes(kb * 1024), a, b, c});
  }
  t.print(std::cout);
  std::printf("(the 512 KB row is the calibration point reported by bench/fig10)\n");
}

}  // namespace
}  // namespace fusecu

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  fusecu::ArgParser({}, {}).parse_or_exit(argc, argv, "usage: ablation_flexibility\n");
  std::printf("=== Ablation: where FuseCU's gains come from ===\n\n");
  fusecu::waterfall();
  fusecu::buffer_sensitivity();
  return 0;
}
