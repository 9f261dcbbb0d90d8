/// \file dataflow_explorer.cpp
/// Command-line dataflow workbench over the whole library:
///
///   dataflow_explorer --op M K L [options]
///
/// options:
///   --buffer SIZE     on-chip buffer (bytes; accepts 512KB / 8MB), default 512KB
///   --elem BYTES      bytes per element, default 2 (bf16)
///   --arch NAME       constrain to a platform space: tpu|gemmini|planaria|unfcu|fusecu
///   --fuse N          treat the op as a chain A x B = C, C x D(L,N) = E and
///                     optimize the fused pair
///   --two-level N     also optimize the buffer <-> register level for an
///                     N x N PE array
///   --validate        cross-check the principles against exhaustive, GA and
///                     SA search
///   --seed N          RNG seed for the stochastic searches (default 0x5eed),
///                     decimal or 0x-hex; fixed seed = reproducible runs
///   --trace FILE      write a chrome-tracing JSON of the double-buffered
///                     execution timeline of the optimized schedule
///
/// Examples:
///   dataflow_explorer --op 1024 768 768 --buffer 1MB --validate
///   dataflow_explorer --op 4096 128 4096 --fuse 128
///   dataflow_explorer --op 16384 768 768 --arch tpu

#include <cstdio>

#include <fstream>

#include "arch/dataflow_space.hpp"
#include "common/cli.hpp"
#include "common/units.hpp"
#include "fusion/fusion_principles.hpp"
#include "principles/two_level.hpp"
#include "search/annealing.hpp"
#include "search/exhaustive.hpp"
#include "search/genetic.hpp"
#include "sim/timeline.hpp"
#include "obs/obs_session.hpp"

using namespace fusecu;

namespace {

const char* const kUsage =
    "usage: dataflow_explorer --op M K L [--buffer SIZE] [--elem BYTES] [--arch NAME]\n"
    "                         [--fuse N] [--two-level N] [--validate] [--seed N]\n"
    "                         [--trace FILE]\n";

int run(int argc, char** argv) {
  ArgParser args({"--validate"}, {"--op", "--buffer", "--elem", "--arch", "--fuse", "--two-level",
                                  "--trace", "--seed"});
  args.parse_or_exit(argc, argv, kUsage);

  // --op consumes one value via the parser plus two positionals.
  auto op_first = args.option("--op");
  if (!op_first || args.positional().size() != 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const Index m = args.option_int("--op", 0);
  if (m < 1) args.usage_error("M must be at least 1");
  const Index k = args.positional_int(0, "K", 0, 1);
  const Index l = args.positional_int(1, "L", 0, 1);
  const std::int64_t buffer_bytes = args.option_bytes("--buffer", 512 * kKiB);
  const Index elem = args.option_int("--elem", 2);
  if (elem < 1) args.usage_error("--elem must be at least 1");
  const BufferSize bs = buffer_bytes / elem;

  TensorOp op = TensorOp::matmul("cli", m, k, l);
  std::printf("operator: %s\n", op.to_string().c_str());
  std::printf("buffer: %s = %lld elements (%lld B/element)\n\n",
              format_bytes(buffer_bytes).c_str(), static_cast<long long>(bs),
              static_cast<long long>(elem));

  if (auto arch_name = args.option("--arch")) {
    ArchSpec arch = make_fusecu(buffer_bytes);
    if (*arch_name == "tpu") {
      arch = make_tpu_v4i(buffer_bytes);
    } else if (*arch_name == "gemmini") {
      arch = make_gemmini(buffer_bytes);
    } else if (*arch_name == "planaria") {
      arch = make_planaria(buffer_bytes);
    } else if (*arch_name == "unfcu") {
      arch = make_unfcu(buffer_bytes);
    } else if (*arch_name != "fusecu") {
      std::fprintf(stderr, "unknown --arch %s\n", arch_name->c_str());
      return 1;
    }
    ArchIntraOpt r = optimize_intra_for_arch(op, arch);
    std::printf("[%s space] %s\n", arch.name.c_str(), r.rule.c_str());
    std::printf("  dataflow: %s\n", r.dataflow.to_string(op).c_str());
    std::printf("  memory access: %s (ideal bound %s)\n",
                format_count(r.access.total).c_str(),
                format_count(op.ideal_min_access()).c_str());
    return 0;
  }

  IntraOptResult r = optimize_intra(op, bs);
  std::printf("[principles] class %s -> %s via %s\n", to_string(r.buffer_class),
              to_string(r.nra), r.rule.c_str());
  std::printf("  dataflow: %s\n", r.dataflow.to_string(op).c_str());
  std::printf("  memory access: %s (%.3fx the ideal bound)\n",
              format_count(r.access.total).c_str(),
              static_cast<double>(r.access.total) /
                  static_cast<double>(op.ideal_min_access()));

  if (args.has_flag("--validate")) {
    const std::uint64_t seed = args.option_uint64("--seed", 0x5eed);
    auto exact = exhaustive_intra(op, bs);
    if (exact) {
      std::printf("[exhaustive] %s -> %s\n", format_count(exact->access.total).c_str(),
                  exact->access.total >= r.access.total ? "principles match or beat the search"
                                                        : "SEARCH WON — please report this");
    }
    if (auto ga = ga_intra(op, bs, GaParams{}, seed)) {
      std::printf("[GA, seed 0x%llx] %s -> %s\n", static_cast<unsigned long long>(seed),
                  format_count(ga->access.total).c_str(),
                  ga->access.total >= r.access.total ? "principles match or beat the search"
                                                     : "SEARCH WON — please report this");
    }
    if (auto sa = sa_intra(op, bs, SaParams{}, seed)) {
      std::printf("[SA, seed 0x%llx] %s -> %s\n", static_cast<unsigned long long>(seed),
                  format_count(sa->access.total).c_str(),
                  sa->access.total >= r.access.total ? "principles match or beat the search"
                                                     : "SEARCH WON — please report this");
    }
  }

  if (args.option("--fuse")) {
    const Index n = args.option_int("--fuse", 0);
    if (n < 1) args.usage_error("--fuse must be at least 1");
    FusedPair pair = FusedPair::make(m, k, l, n);
    FusionDecision d = decide_fusion(pair, bs);
    std::printf("\n[fusion with D(%lld,%lld)] Principle 4 says: %s\n", static_cast<long long>(l),
                static_cast<long long>(n), d.principle4_predicts ? "fuse" : "do not fuse");
    std::printf("  unfused: %s   fused: %s   (%s)\n", format_count(d.unfused_ma).c_str(),
                d.fusable ? format_count(d.fused_ma).c_str() : "-",
                d.fused ? d.fused->chosen.rule.c_str() : "no feasible fused dataflow");
  }

  if (auto trace_path = args.option("--trace")) {
    TraceRecorder recorder;
    TimelineResult tl = simulate_timeline(op, r.dataflow, make_fusecu(buffer_bytes), 1.0,
                                          &recorder);
    std::ofstream out(*trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot open trace file %s\n", trace_path->c_str());
      return 1;
    }
    write_chrome_trace(out, recorder);
    std::printf("\n[timeline] %lld cycles over %lld iterations (roofline %lld, serialized %lld)\n",
                static_cast<long long>(tl.cycles), static_cast<long long>(tl.iterations),
                static_cast<long long>(tl.roofline()), static_cast<long long>(tl.serialized()));
    std::printf("  chrome trace written to %s (%zu events, %zu dropped)\n", trace_path->c_str(),
                recorder.events().size(), recorder.dropped());
  }

  if (args.option("--two-level")) {
    const Index array_n = args.option_int("--two-level", 0);
    if (array_n < 1) args.usage_error("--two-level must be at least 1");
    TwoLevelResult two = optimize_two_level(op, bs, array_n * array_n);
    std::printf("\n[two-level, %lldx%lld array]\n", static_cast<long long>(array_n),
                static_cast<long long>(array_n));
    std::printf("  DRAM <-> buffer : %s (%s, %s)\n", format_count(two.dram_traffic).c_str(),
                to_string(two.outer.nra), two.outer.rule.c_str());
    std::printf("  buffer <-> regs : %s over %lld tile passes (%s)\n",
                format_count(two.buffer_traffic).c_str(),
                static_cast<long long>(two.outer_iterations), to_string(two.inner.nra));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    fusecu::ObsSession obs(argc, argv);
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
