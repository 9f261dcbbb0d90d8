/// \file arch_compare.cpp
/// Bring-your-own-operator platform comparison: describe any matmul chain
/// on the command line and see how the five platforms schedule it — the
/// chosen dataflow rule, memory access, cycles, and whether FuseCU fuses.
///
/// Usage: arch_compare [M K L [N]]
///   M K L      a single matmul A(M,K) x B(K,L)
///   M K L N    a chain A(M,K) x B(K,L) = C, C x D(L,N) = E
/// Default: the DeBERTa-v2 attention pair (1024, 64, 1024, 64).

#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "sim/perf_model.hpp"
#include "obs/obs_session.hpp"

using namespace fusecu;

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  ArgParser args({}, {});
  args.parse_or_exit(argc, argv, "usage: arch_compare [M K L [N]]\n");
  const std::size_t given = args.positional().size();
  if (given != 0 && given != 3 && given != 4) {
    args.usage_error("expected 0, 3 or 4 extents, got " + std::to_string(given));
  }
  const bool chain = given != 3;
  const Index m = args.positional_int(0, "M", 1024, 1);
  const Index k = args.positional_int(1, "K", 64, 1);
  const Index l = args.positional_int(2, "L", 1024, 1);
  const Index n = args.positional_int(3, "N", 64, 1);

  OperatorGraph graph;
  if (chain) {
    graph = MatMulChainBuilder(m, {k, l, n}, "user").graph();
    std::printf("chain: A(%lld,%lld) x B -> C(%lld,%lld) x D -> E(%lld,%lld)\n\n",
                (long long)m, (long long)k, (long long)m, (long long)l, (long long)m,
                (long long)n);
  } else {
    graph.add_op(TensorOp::matmul("user", m, k, l));
    std::printf("operator: A(%lld,%lld) x B(%lld,%lld)\n\n", (long long)m, (long long)k,
                (long long)k, (long long)l);
  }

  TextTable t({"platform", "memory access", "cycles", "utilization", "fused", "dataflow"});
  for (const ArchSpec& arch : all_platforms()) {
    ArchPlan plan = plan_chain_for_arch(graph, arch);
    PlanPerf perf = evaluate_plan_perf(plan, arch);
    std::string rules;
    for (const ArchPlanStep& s : plan.steps) {
      if (!rules.empty()) rules += " | ";
      rules += s.rule;
    }
    char util[16];
    std::snprintf(util, sizeof(util), "%.3f", perf.utilization(arch));
    t.add_row({arch.name, format_count(perf.access), format_count(perf.cycles), util,
               std::to_string(plan.fused_pair_count()), rules});
  }
  t.print(std::cout);
  return 0;
}
