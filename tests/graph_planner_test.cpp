#include <gtest/gtest.h>

#include <set>

#include "fusion/graph_planner.hpp"
#include "workloads/transformer.hpp"

namespace fusecu {
namespace {

TEST(ElementwiseIr, FactoriesAndFlags) {
  TensorOp gelu = TensorOp::elementwise("gelu", 16, 32, "in", "out");
  EXPECT_TRUE(gelu.is_elementwise());
  EXPECT_FALSE(gelu.is_rowwise());
  EXPECT_EQ(gelu.macs(), 16 * 32);
  EXPECT_EQ(gelu.num_tensors(), 2);

  TensorOp softmax = TensorOp::elementwise("softmax", 16, 16, "s", "p", /*rowwise=*/true);
  EXPECT_TRUE(softmax.is_rowwise());

  TensorOp add = TensorOp::binary_elementwise("residual", 8, 8, "a", "b", "c");
  EXPECT_TRUE(add.is_elementwise());
  EXPECT_EQ(add.num_tensors(), 3);
  EXPECT_EQ(add.output_index(), 2);

  TensorOp mm = TensorOp::matmul("mm", 4, 4, 4);
  EXPECT_FALSE(mm.is_elementwise());
  EXPECT_TRUE(is_matmul_shaped(mm));
  EXPECT_FALSE(is_matmul_shaped(gelu));
}

TEST(GraphPlanner, PureMatmulChainMatchesChainPlanner) {
  OperatorGraph g = MatMulChainBuilder(128, {64, 128, 64}, "c").graph();
  const BufferSize bs = 16 * 1024;
  GraphPlan gp = plan_graph(g, bs, PlannerPolicy::kCostOnly);
  FusionPlan cp = plan_chain(g, bs, PlannerPolicy::kCostOnly, 4);
  ASSERT_EQ(gp.chains.size(), 1u);
  EXPECT_EQ(gp.total_access, cp.total_access);
  EXPECT_EQ(gp.elementwise_access, 0);
}

TEST(GraphPlanner, PointwiseEpilogueIsFree) {
  // mm -> gelu -> mm: the GeLU melts into the stream; the plan must cost
  // the same as the direct two-matmul chain.
  OperatorGraph with_gelu;
  with_gelu.add_op(TensorOp::matmul("mm1", 128, 64, 256, "X", "W1", "H"));
  with_gelu.add_op(TensorOp::elementwise("gelu", 128, 256, "H", "G"));
  with_gelu.add_op(TensorOp::matmul("mm2", 128, 256, 64, "G", "W2", "Z"));

  OperatorGraph direct;
  direct.add_op(TensorOp::matmul("mm1", 128, 64, 256, "X", "W1", "H"));
  direct.add_op(TensorOp::matmul("mm2", 128, 256, 64, "H", "W2", "Z"));

  const BufferSize bs = 16 * 1024;
  GraphPlan a = plan_graph(with_gelu, bs, PlannerPolicy::kCostOnly);
  FusionPlan b = plan_chain(direct, bs, PlannerPolicy::kCostOnly, 4);
  EXPECT_EQ(a.total_access, b.total_access);
  EXPECT_EQ(a.absorbed_pointwise, 1);
  EXPECT_EQ(a.elementwise_access, 0);
}

TEST(GraphPlanner, RowwiseSpillsWhenUnfusedAndAbsorbsWhenFused) {
  // mm -> softmax -> mm (the attention core).
  auto build = [] {
    OperatorGraph g;
    g.add_op(TensorOp::matmul("score", 256, 64, 256, "Q", "Kt", "S"));
    g.add_op(TensorOp::elementwise("softmax", 256, 256, "S", "P", /*rowwise=*/true));
    g.add_op(TensorOp::matmul("context", 256, 256, 64, "P", "V", "O"));
    return g;
  };
  const BufferSize bs = 64 * 1024;
  GraphPlan fused = plan_graph(build(), bs, PlannerPolicy::kCostOnly);
  EXPECT_EQ(fused.absorbed_rowwise, 1);
  EXPECT_EQ(fused.spilled_rowwise, 0);
  EXPECT_EQ(fused.elementwise_access, 0);

  GraphPlan unfused = plan_graph(build(), bs, PlannerPolicy::kNoFusion);
  EXPECT_EQ(unfused.absorbed_rowwise, 0);
  EXPECT_EQ(unfused.spilled_rowwise, 1);
  EXPECT_EQ(unfused.elementwise_access, 2 * 256 * 256);
  EXPECT_GT(unfused.total_access, fused.total_access);
}

TEST(GraphPlanner, ResidualStreamsSecondOperandOnce) {
  OperatorGraph g;
  g.add_op(TensorOp::matmul("mm", 64, 32, 64, "X", "W", "Y"));
  g.add_op(TensorOp::binary_elementwise("residual", 64, 64, "Y", "X0", "R"));
  GraphPlan p = plan_graph(g, 8 * 1024, PlannerPolicy::kCostOnly);
  EXPECT_EQ(p.elementwise_access, 64 * 64);  // the residual operand X0
  EXPECT_EQ(p.absorbed_pointwise, 1);
}

TEST(GraphPlanner, FanInBreaksChains) {
  // Two producers feeding one consumer: three matmuls, at most the pair
  // through the first input can chain.
  OperatorGraph g;
  g.add_op(TensorOp::matmul("q", 64, 128, 32, "X", "Wq", "Q"));
  g.add_op(TensorOp::matmul("k", 32, 128, 64, "WkT", "Xt", "Kt"));
  g.add_op(TensorOp::matmul("score", 64, 32, 64, "Q", "Kt", "S"));
  GraphPlan p = plan_graph(g, 32 * 1024, PlannerPolicy::kCostOnly);
  int covered = 0;
  for (const GraphPlanChain& c : p.chains) covered += static_cast<int>(c.op_indices.size());
  EXPECT_EQ(covered, 3);
  EXPECT_GE(p.chains.size(), 2u);  // k_proj cannot join the q->score chain
}

TEST(GraphPlanner, FullTransformerBlock) {
  ModelConfig small{"tiny", 4, 256, 256};
  OperatorGraph block = transformer_block_graph(small);
  EXPECT_FALSE(block.is_linear_chain());

  const BufferSize bs = 256 * 1024;
  GraphPlan fused = plan_graph(block, bs, PlannerPolicy::kCostOnly);
  GraphPlan unfused = plan_graph(block, bs, PlannerPolicy::kNoFusion);

  // Every matmul covered exactly once.
  std::set<int> covered;
  for (const GraphPlanChain& c : fused.chains) {
    for (int i : c.op_indices) EXPECT_TRUE(covered.insert(i).second);
  }
  EXPECT_EQ(covered.size(), 8u);  // q, k, v, score, context, out_proj, ffn up/down

  EXPECT_LT(fused.total_access, unfused.total_access);
  // GeLU is always free; softmax absorption requires the score/context
  // fusion the planner should find at this buffer size.
  EXPECT_GE(fused.absorbed_pointwise, 1);
  EXPECT_GE(fused.absorbed_rowwise, 1);
}

TEST(GraphPlanner, RejectsUnsupportedOps) {
  OperatorGraph g;
  g.add_op(TensorOp("weird", {{"A", 4}, {"B", 4}, {"C", 4}, {"D", 4}},
                    {{"in", {0, 1}, TensorRole::kInput}, {"out", {2, 3}, TensorRole::kOutput}}));
  EXPECT_THROW(plan_graph(g, 1024, PlannerPolicy::kCostOnly), std::invalid_argument);
  OperatorGraph empty;
  EXPECT_THROW(plan_graph(empty, 1024, PlannerPolicy::kCostOnly), std::invalid_argument);
}

}  // namespace
}  // namespace fusecu
