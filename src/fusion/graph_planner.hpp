#pragma once

#include "fusion/chain_fusion.hpp"

/// \file graph_planner.hpp
/// Whole-graph planning: arbitrary operator DAGs with matmuls and
/// elementwise operators (GeLU, residual adds, softmax, layernorm).
///
/// Real transformer blocks are not linear matmul chains — they carry
/// elementwise epilogues and residual fan-outs.  The planner handles them
/// with two standard mechanisms:
///
///  * **Elementwise absorption.**  A pointwise operator melts into the
///    stream of an adjacent matmul at zero memory cost (the classic
///    epilogue fusion); a *binary* pointwise op (residual add) additionally
///    streams its second operand once.  A *row-wise* operator (softmax,
///    layernorm) needs complete rows: it is free only when the matmuls
///    around it end up in one fused group whose intermediate rows complete
///    on-chip — otherwise it round-trips its tensor through memory
///    (2 x |tensor|), which is exactly the unfused-attention softmax
///    penalty of the workload model.
///  * **Chain decomposition.**  After absorption the matmul DAG splits into
///    maximal linear chains at fan-in/fan-out points; each chain is planned
///    with plan_chain in groups of up to max_group ops and the costs add up.

namespace fusecu {

/// Non-throwing matmul-shape test.
bool is_matmul_shaped(const TensorOp& op);

struct GraphPlanChain {
  std::vector<int> op_indices;  ///< original graph indices (matmuls only)
  FusionPlan plan;              ///< plan over the rebuilt linear chain
};

struct GraphPlan {
  std::vector<GraphPlanChain> chains;
  AccessCount elementwise_access = 0;  ///< non-absorbed elementwise traffic
  AccessCount total_access = 0;        ///< chains + elementwise
  int absorbed_pointwise = 0;          ///< pointwise ops melted into streams
  int absorbed_rowwise = 0;            ///< row-wise ops covered by fusion
  int spilled_rowwise = 0;             ///< row-wise ops that round-tripped
};

/// Plan an arbitrary DAG of matmul and elementwise operators.
GraphPlan plan_graph(const OperatorGraph& graph, BufferSize bs, PlannerPolicy policy,
                     int max_group = 4);

}  // namespace fusecu
