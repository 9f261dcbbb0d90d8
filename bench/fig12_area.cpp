/// \file fig12_area.cpp
/// Regenerates Fig. 12: the 28nm area breakdown of FuseCU and its
/// overheads.  Expected: FuseCU costs ~12.0% over the TPUv4i baseline,
/// dominated by the XS PE logic, with the resize interconnect and fusion
/// control together below 0.1% — versus Planaria's 12.6% interconnect-only
/// overhead.

#include <cstdio>
#include <iostream>

#include "arch/area_model.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "obs/obs_session.hpp"

namespace fusecu {
namespace {

void run() {
  std::printf("=== Fig. 12: area breakdown at 28nm (analytical model) ===\n\n");

  for (const ArchSpec& arch : all_platforms()) {
    AreaBreakdown b = area_breakdown(arch);
    std::printf("--- %s: total %.3f mm^2, overhead vs baseline %.2f%% ---\n",
                b.platform.c_str(), b.total_um2() / 1e6, 100.0 * b.overhead_fraction());
    TextTable t({"component", "area (mm^2)", "share", "overhead?"});
    for (const AreaComponent& c : b.components) {
      char area_s[32], share_s[32];
      std::snprintf(area_s, sizeof(area_s), "%.4f", c.area_um2 / 1e6);
      std::snprintf(share_s, sizeof(share_s), "%6.3f%%", 100.0 * c.area_um2 / b.total_um2());
      t.add_row({c.name, area_s, share_s, c.is_overhead ? "yes" : ""});
    }
    t.print(std::cout);
    std::printf("\n");
  }

  AreaBreakdown fcu = area_breakdown(make_fusecu());
  std::printf("--- headline (paper values in brackets) ---\n");
  std::printf("FuseCU area increase over TPUv4i          : %5.2f%%  [12.0%%]\n",
              100.0 * fcu.overhead_fraction());
  std::printf("FuseCU interconnect + fusion control share: %6.4f%%  [<0.1%%]\n",
              100.0 * (fcu.component_fraction("FuseCU interconnect") +
                       fcu.component_fraction("fusion control")));
  std::printf("Planaria interconnect overhead            : %5.2f%%  [12.6%%]\n",
              100.0 * area_breakdown(make_planaria()).overhead_fraction());
}

}  // namespace
}  // namespace fusecu

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  fusecu::ArgParser({}, {}).parse_or_exit(argc, argv, "usage: fig12_area\n");
  fusecu::run();
  return 0;
}
