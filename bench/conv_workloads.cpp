/// \file conv_workloads.cpp
/// Extension bench: the principles applied beyond matrix multiplication
/// (Sec. III-B2: "Principle 1-4 can be extended to other tensor operators").
/// Evaluates representative ResNet-50 convolution layers through the
/// im2col view on all five platforms, and cross-checks the analytical MA of
/// a direct 7-loop weight-stationary conv dataflow against the im2col
/// equivalent.

#include <cstdio>
#include <iostream>

#include "arch/dataflow_space.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "principles/principle_optimizer.hpp"
#include "tensor/conv.hpp"
#include "obs/obs_session.hpp"

namespace fusecu {
namespace {

std::vector<Conv2dConfig> resnet_layers() {
  auto layer = [](const char* name, Index c, Index k, Index hw, Index kernel, Index stride) {
    Conv2dConfig cfg;
    cfg.name = name;
    cfg.batch = 8;
    cfg.in_channels = c;
    cfg.out_channels = k;
    cfg.in_h = cfg.in_w = hw;
    cfg.kernel_h = cfg.kernel_w = kernel;
    cfg.stride = stride;
    return cfg;
  };
  return {
      layer("conv2_3x3 (64->64, 56x56)", 64, 64, 58, 3, 1),
      layer("conv3_3x3 (128->128, 28x28)", 128, 128, 30, 3, 1),
      layer("conv4_1x1 (256->1024, 14x14)", 256, 1024, 14, 1, 1),
      layer("conv5_3x3 (512->512, 7x7)", 512, 512, 9, 3, 1),
  };
}

void platform_comparison() {
  std::printf("--- ResNet-50 layers (im2col) across platforms: normalized MA ---\n");
  TextTable t({"layer", "MACs", "TPUv4i", "Gemmini", "Planaria", "UnfCU/FuseCU"});
  for (const Conv2dConfig& cfg : resnet_layers()) {
    TensorOp mm = conv_as_matmul(cfg);
    const double base =
        static_cast<double>(optimize_intra_for_arch(mm, make_tpu_v4i()).access.total);
    std::vector<double> vals = {1.0};
    for (const ArchSpec& arch : {make_gemmini(), make_planaria(), make_unfcu()}) {
      vals.push_back(static_cast<double>(optimize_intra_for_arch(mm, arch).access.total) / base);
    }
    std::vector<std::string> row = {cfg.name, format_count(cfg.macs())};
    char buf[16];
    for (double v : vals) {
      std::snprintf(buf, sizeof(buf), "%.3f", v);
      row.emplace_back(buf);
    }
    t.add_row(row);
  }
  t.print(std::cout);
  std::printf("(convolution has no profitable pairwise fusion here, so UnfCU == FuseCU;\n"
              " the flexible-tiling MA advantage carries over from the matmul study)\n\n");
}

void direct_vs_im2col() {
  std::printf("--- direct 7-loop nest vs im2col view (weight-stationary schedule) ---\n");
  TextTable t({"layer", "direct-nest MA", "im2col MA", "direct / im2col"});
  for (const Conv2dConfig& cfg : resnet_layers()) {
    TensorOp nest = conv_as_loop_nest(cfg);
    // Weight-stationary: all weight dims untiled, spatial output tiled.
    Dataflow df = make_dataflow(
        nest, {"K", "C", "R", "S", "N", "P", "Q"},
        {{"K", cfg.out_channels},
         {"C", cfg.in_channels},
         {"R", cfg.kernel_h},
         {"S", cfg.kernel_w},
         {"N", 1},
         {"P", std::min<Index>(cfg.out_h(), 8)},
         {"Q", std::min<Index>(cfg.out_w(), 8)}});
    AccessCount direct = evaluate_access(nest, df).total;

    TensorOp mm = conv_as_matmul(cfg);
    AccessCount im2col =
        optimize_intra(mm, make_fusecu().buffer_elements()).access.total;
    char ratio[16];
    std::snprintf(ratio, sizeof(ratio), "%.3f",
                  static_cast<double>(direct) / static_cast<double>(im2col));
    t.add_row({cfg.name, format_count(direct), format_count(im2col), ratio});
  }
  t.print(std::cout);
  std::printf("(the decoupled-index direct view overcounts patch overlap; im2col is the\n"
              " execution model of the GEMM-based platforms studied here)\n");
}

}  // namespace
}  // namespace fusecu

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  fusecu::ArgParser({}, {}).parse_or_exit(argc, argv, "usage: conv_workloads\n");
  std::printf("=== Convolution workloads (extension) ===\n\n");
  fusecu::platform_comparison();
  fusecu::direct_vs_im2col();
  return 0;
}
