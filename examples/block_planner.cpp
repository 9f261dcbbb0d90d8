/// \file block_planner.cpp
/// Plan a full transformer block — the real DAG with softmax, GeLU,
/// residual adds and layernorms, not just the matmul chains — and show
/// where fusion absorbs the elementwise structure.
///
/// Usage: block_planner [seq [hidden [heads]]]   (default 1024 768 12)

#include <cstdio>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/units.hpp"
#include "fusion/graph_planner.hpp"
#include "workloads/transformer.hpp"
#include "obs/obs_session.hpp"

using namespace fusecu;

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  ArgParser args({}, {});
  args.parse_or_exit(argc, argv, "usage: block_planner [seq [hidden [heads]]]\n");
  ModelConfig model{"block", 12, 1024, 768};
  model.seq = args.positional_int(0, "seq", model.seq, 1);
  model.hidden = args.positional_int(1, "hidden", model.hidden, 1);
  model.heads = static_cast<int>(args.positional_int(2, "heads", model.heads, 1));

  OperatorGraph block;
  try {
    block = transformer_block_graph(model);
  } catch (const std::invalid_argument& e) {
    args.usage_error(e.what());
  }
  std::printf("transformer block (per-head slice): seq=%lld hidden=%lld head_dim=%lld\n",
              static_cast<long long>(model.seq), static_cast<long long>(model.hidden),
              static_cast<long long>(model.head_dim()));
  std::printf("%d operators, %zu intermediates, %s MACs\n\n", block.num_ops(),
              block.intermediate_tensors().size(), format_count(block.macs()).c_str());

  const BufferSize bs = 512 * 1024 / 2;  // the evaluation buffer in elements
  for (PlannerPolicy policy :
       {PlannerPolicy::kNoFusion, PlannerPolicy::kPrinciple4, PlannerPolicy::kCostOnly}) {
    GraphPlan plan = plan_graph(block, bs, policy);
    std::printf("[%s] total MA = %s  (elementwise share %s)\n", to_string(policy),
                format_count(plan.total_access).c_str(),
                format_count(plan.elementwise_access).c_str());
    std::printf("  pointwise absorbed: %d, row-wise absorbed: %d, row-wise spilled: %d\n",
                plan.absorbed_pointwise, plan.absorbed_rowwise, plan.spilled_rowwise);
    for (const GraphPlanChain& chain : plan.chains) {
      std::printf("  chain {");
      for (std::size_t i = 0; i < chain.op_indices.size(); ++i) {
        std::printf("%s%s", i ? " -> " : "",
                    block.op(chain.op_indices[i]).name().c_str());
      }
      std::printf("}:");
      for (const PlanStep& s : chain.plan.steps) {
        std::printf(" [%zu op%s: %s]", s.op_indices.size(),
                    s.op_indices.size() > 1 ? "s" : "", s.description.c_str());
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  return 0;
}
