/// \file attention_fusion.cpp
/// End-to-end attention-core walkthrough: plan the fused dataflow for
/// S = Q K^T -> O = S V analytically, then *execute* a scaled-down tile of
/// it on the functional FuseCU simulator — both the tile-fusion mapping
/// (intermediate stationary in the PE accumulators, Fig. 5(a)) and the
/// column-fusion mapping (intermediate streamed CU-to-CU, Fig. 5(b)) —
/// verifying bit-exact results against a reference matmul chain and
/// reporting the on-chip traffic the fusion avoided.

#include <cstdio>

#include "arch/dataflow_space.hpp"
#include "common/cli.hpp"
#include "common/units.hpp"
#include "sim/fusecu_quad.hpp"
#include "workloads/transformer.hpp"
#include "obs/obs_session.hpp"

using namespace fusecu;

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  fusecu::ArgParser({}, {}).parse_or_exit(argc, argv, "usage: attention_fusion\n");
  // --- Plan: one BERT layer's attention chain on FuseCU vs UnfCU.
  ModelConfig bert = table2_models()[0];
  std::printf("model: %s (heads=%d, seq=%lld, hidden=%lld)\n\n", bert.name.c_str(), bert.heads,
              static_cast<long long>(bert.seq), static_cast<long long>(bert.hidden));

  for (const WorkloadChain& chain : lower_layer(bert)) {
    if (chain.label != "attention") continue;
    for (const ArchSpec& arch : {make_unfcu(), make_fusecu()}) {
      ArchPlan plan = plan_chain_for_arch(chain.graph, arch);
      std::printf("%-7s attention plan: %d fused pair(s), MA per head = %s elements\n",
                  arch.name.c_str(), plan.fused_pair_count(),
                  format_count(plan.total_access).c_str());
      for (const ArchPlanStep& s : plan.steps) {
        std::printf("         step ops={");
        for (std::size_t i = 0; i < s.op_indices.size(); ++i) {
          std::printf("%s%d", i ? "," : "", s.op_indices[i]);
        }
        std::printf("} %s, spatial tile %lldx%lld\n", s.rule.c_str(),
                    static_cast<long long>(s.spatial_rows),
                    static_cast<long long>(s.spatial_cols));
      }
    }
  }

  // --- Execute: a scaled-down head (tile) on the cycle-stepped simulator.
  const Index m = 8, dh = 8, l = 8;
  Matrix q = make_test_matrix(m, dh, 1);
  Matrix kt = make_test_matrix(dh, l, 2);
  Matrix v = make_test_matrix(l, dh, 3);
  Matrix expected = matmul_reference(matmul_reference(q, kt), v);

  FuseCuQuad quad(8);

  std::printf("\n--- tile fusion on one CU (Fig. 5(a)): OS phase -> promote -> IS phase ---\n");
  quad.reset_traffic();
  auto tile = quad.run_tile_fusion(q, kt, v);
  std::printf("result %s reference, %lld cycles, traffic in/out/preload = %lld/%lld/%lld\n",
              tile.output == expected ? "==" : "!=", static_cast<long long>(tile.cycles),
              static_cast<long long>(quad.input_traffic()),
              static_cast<long long>(quad.output_traffic()),
              static_cast<long long>(quad.preload_traffic()));

  std::printf("\n--- column fusion across two CUs (Fig. 5(b)): IS producer -> OS consumer ---\n");
  quad.reset_traffic();
  auto column = quad.run_column_fusion(q, kt, v);
  std::printf("result %s reference, %lld cycles, traffic in/out/preload = %lld/%lld/%lld\n",
              column.output == expected ? "==" : "!=", static_cast<long long>(column.cycles),
              static_cast<long long>(quad.input_traffic()),
              static_cast<long long>(quad.output_traffic()),
              static_cast<long long>(quad.preload_traffic()));
  std::printf("(the %lld-element intermediate S crossed no array edge in either mapping)\n",
              static_cast<long long>(m * l));
  return 0;
}
