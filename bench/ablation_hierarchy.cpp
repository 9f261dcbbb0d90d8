/// \file ablation_hierarchy.cpp
/// Two-level hierarchy ablation: compose the principles at the
/// DRAM <-> buffer level and the buffer <-> register level (Sec. IV's
/// "BS corresponds to the register size now") and sweep both capacities.
/// Shows (a) buffer-level traffic dwarfs DRAM traffic — the register-level
/// regime matters even when the DRAM side is already optimal — and (b) how
/// array size moves the inner regime across the 2N boundary.

#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "principles/two_level.hpp"
#include "obs/obs_session.hpp"

namespace fusecu {
namespace {

void run() {
  std::printf("=== Two-level hierarchy ablation ===\n\n");
  const struct {
    const char* name;
    Index m, k, l;
  } ops[] = {
      {"BERT proj (16384x768x768)", 16384, 768, 768},
      {"attention score (1024x64x1024)", 1024, 64, 1024},
  };

  for (const auto& o : ops) {
    TensorOp op = TensorOp::matmul(o.name, o.m, o.k, o.l);
    const std::int64_t buffer_bytes = 4ll * 1024 * 1024;
    std::printf("--- %s, buffer = %s ---\n", o.name, format_bytes(buffer_bytes).c_str());
    TextTable t({"array", "registers", "DRAM traffic", "buffer traffic", "inner regime",
                 "buffer/DRAM"});
    for (Index n = 32; n <= 256; n *= 2) {
      TwoLevelResult r = optimize_two_level(op, buffer_bytes / 2, n * n);
      char ratio[16];
      std::snprintf(ratio, sizeof(ratio), "%.1f",
                    static_cast<double>(r.buffer_traffic) /
                        static_cast<double>(r.dram_traffic));
      t.add_row({std::to_string(n) + "x" + std::to_string(n), std::to_string(n * n),
                 format_count(r.dram_traffic), format_count(r.buffer_traffic),
                 to_string(r.inner.nra), ratio});
    }
    t.print(std::cout);
    std::printf("\n");
  }
  std::printf("The buffer<->register level moves 60-400x more elements than DRAM, which\n"
              "is why the register-level principles (Sec. IV) matter for energy even when\n"
              "the DRAM side is already optimal.  The inner regime crosses Two->Three-NRA\n"
              "as N^2 clears the 2N rule; once it reaches Three-NRA the inner traffic is\n"
              "the per-tile ideal and stops improving with array size.\n");
}

}  // namespace
}  // namespace fusecu

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  fusecu::ArgParser({}, {}).parse_or_exit(argc, argv, "usage: ablation_hierarchy\n");
  fusecu::run();
  return 0;
}
