#include "fusion/graph_planner.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace fusecu {

bool is_matmul_shaped(const TensorOp& op) {
  if (op.is_elementwise()) return false;
  try {
    require_matmul_shape(op);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

namespace {

/// Where op \p i's output ends up after skipping through elementwise ops:
/// the chain of single-consumer elementwise hops, ending at the first
/// non-elementwise consumer (or nowhere).  Collects the skipped ops.
struct EffectiveEdge {
  int consumer = -1;                 ///< matmul index, -1 when none/ambiguous
  std::vector<int> through;          ///< elementwise ops on the way
};

EffectiveEdge trace_through_elementwise(const OperatorGraph& g, int producer) {
  EffectiveEdge edge;
  int current = producer;
  while (true) {
    const TensorOp& op = g.op(current);
    const std::string& out = op.tensor(op.output_index()).name;
    std::vector<int> consumers = g.consumers_of(out);
    if (consumers.size() != 1) return edge;  // fan-out or terminal
    const int next = consumers[0];
    if (g.op(next).is_elementwise()) {
      edge.through.push_back(next);
      current = next;
      continue;
    }
    edge.consumer = next;
    return edge;
  }
}

/// Rebuild a chain of matmuls as a directly connected linear graph: each
/// successor's chained input is renamed to its predecessor's output (the
/// absorbed elementwise ops transform the stream in place).
OperatorGraph rebuild_chain(const OperatorGraph& g, const std::vector<int>& ops) {
  OperatorGraph chain;
  std::string previous_output;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const TensorOp& op = g.op(ops[i]);
    std::string a = op.tensor(mm::kTensorA).name;
    std::string b = op.tensor(mm::kTensorB).name;
    std::string c = op.tensor(op.output_index()).name;
    if (i > 0) {
      // The chained operand is whichever input descends from the previous
      // op's output; after elementwise hops the names differ, so rename.
      a = previous_output;
      // Disambiguate potential name collisions with the weight operand.
      if (b == a) b += ".w";
    }
    previous_output = c;
    chain.add_op(TensorOp::matmul(op.name(), op.extent(mm::kDimM), op.extent(mm::kDimK),
                                  op.extent(mm::kDimL), a, b, c));
  }
  return chain;
}

/// Does the chained operand of \p consumer descend from \p producer's
/// output through the traced elementwise hops as its FIRST input?  (The
/// weight-side orientation would need a transposed rebuild; the planner
/// conservatively breaks the chain there.)
bool chained_through_first_input(const OperatorGraph& g, int producer,
                                 const EffectiveEdge& edge) {
  const TensorOp& cons = g.op(edge.consumer);
  std::string upstream = edge.through.empty()
                             ? g.op(producer).tensor(g.op(producer).output_index()).name
                             : g.op(edge.through.back())
                                   .tensor(g.op(edge.through.back()).output_index())
                                   .name;
  if (cons.tensor(mm::kTensorA).name != upstream) return false;
  // Extent agreement for the canonical orientation.
  return cons.extent(mm::kDimM) == g.op(producer).extent(mm::kDimM) &&
         cons.extent(mm::kDimK) == g.op(producer).extent(mm::kDimL);
}

}  // namespace

GraphPlan plan_graph(const OperatorGraph& graph, BufferSize bs, PlannerPolicy policy,
                     int max_group) {
  FCU_CHECK(graph.num_ops() >= 1, "empty graph");
  ScopedSpan span("plan_graph", FCU_HISTOGRAM("time/plan_graph"));
  FCU_COUNTER("fusion/plan_graph/calls").add();
  FCU_COUNTER("fusion/plan_graph/ops").add(graph.num_ops());

  GraphPlan result;
  std::vector<int> matmuls;
  for (int i = 0; i < graph.num_ops(); ++i) {
    const TensorOp& op = graph.op(i);
    if (op.is_elementwise()) continue;
    FCU_CHECK(is_matmul_shaped(op),
              "graph planner supports matmul and elementwise ops; got " + op.name());
    matmuls.push_back(i);
  }
  FCU_CHECK(!matmuls.empty(), "graph has no matmul operators");

  // Effective matmul->matmul edges, remembering the elementwise hops.
  std::map<int, EffectiveEdge> next;
  std::map<int, int> in_degree;
  for (int m : matmuls) in_degree[m] = 0;
  for (int m : matmuls) {
    EffectiveEdge e = trace_through_elementwise(graph, m);
    if (e.consumer >= 0 && chained_through_first_input(graph, m, e)) {
      next[m] = e;
      ++in_degree[e.consumer];
    } else {
      next[m] = EffectiveEdge{};  // keeps the hops for accounting below
      next[m].through = e.through;
    }
  }

  // Maximal linear chains: start at matmuls with no unique chained
  // predecessor, follow single-consumer links.
  std::set<int> chained_targets;
  for (const auto& [m, e] : next) {
    if (e.consumer >= 0 && in_degree[e.consumer] == 1) chained_targets.insert(e.consumer);
  }
  std::set<int> visited;
  std::vector<std::vector<int>> chains;
  std::vector<std::vector<int>> chain_rowwise_between;  // ew indices between links
  for (int m : matmuls) {
    if (visited.count(m) || chained_targets.count(m)) continue;
    std::vector<int> chain_ops = {m};
    visited.insert(m);
    int at = m;
    while (next[at].consumer >= 0 && in_degree[next[at].consumer] == 1 &&
           !visited.count(next[at].consumer)) {
      at = next[at].consumer;
      chain_ops.push_back(at);
      visited.insert(at);
    }
    chains.push_back(std::move(chain_ops));
  }
  FCU_ASSERT_INTERNAL(visited.size() == matmuls.size(), "chain cover must be exact");

  // Plan each chain.
  std::map<int, std::pair<std::size_t, std::size_t>> position;  // matmul -> (chain, index)
  for (std::size_t c = 0; c < chains.size(); ++c) {
    for (std::size_t i = 0; i < chains[c].size(); ++i) position[chains[c][i]] = {c, i};
    OperatorGraph rebuilt = rebuild_chain(graph, chains[c]);
    GraphPlanChain planned;
    planned.op_indices = chains[c];
    planned.plan = plan_chain(rebuilt, bs, policy, max_group);
    result.total_access += planned.plan.total_access;
    result.chains.push_back(std::move(planned));
  }

  // Elementwise accounting.
  auto fused_together = [&](int mm_a, int mm_b) {
    auto pa = position.find(mm_a);
    auto pb = position.find(mm_b);
    if (pa == position.end() || pb == position.end()) return false;
    if (pa->second.first != pb->second.first) return false;
    const GraphPlanChain& chain = result.chains[pa->second.first];
    for (const PlanStep& step : chain.plan.steps) {
      const bool has_a = std::find(step.op_indices.begin(), step.op_indices.end(),
                                   static_cast<int>(pa->second.second)) != step.op_indices.end();
      const bool has_b = std::find(step.op_indices.begin(), step.op_indices.end(),
                                   static_cast<int>(pb->second.second)) != step.op_indices.end();
      if (has_a && has_b) return true;
    }
    return false;
  };

  for (int i = 0; i < graph.num_ops(); ++i) {
    const TensorOp& op = graph.op(i);
    if (!op.is_elementwise()) continue;
    // Extra streamed operands: every input beyond the first is fetched once
    // (the residual path of a binary add).
    for (int t = 1; t < op.num_tensors() - 1; ++t) {
      result.elementwise_access += op.tensor_size(t);
    }
    if (!op.is_rowwise()) {
      ++result.absorbed_pointwise;
      continue;
    }
    // Row-wise: free only when the surrounding matmuls fused.
    std::optional<int> producer_op = graph.producer_of(op.tensor(0).name);
    EffectiveEdge onward = trace_through_elementwise(graph, i);
    int upstream_matmul = -1;
    if (producer_op) {
      upstream_matmul = *producer_op;
      while (upstream_matmul >= 0 && graph.op(upstream_matmul).is_elementwise()) {
        auto p = graph.producer_of(graph.op(upstream_matmul).tensor(0).name);
        upstream_matmul = p ? *p : -1;
      }
    }
    if (upstream_matmul >= 0 && onward.consumer >= 0 &&
        fused_together(upstream_matmul, onward.consumer)) {
      ++result.absorbed_rowwise;
    } else {
      ++result.spilled_rowwise;
      result.elementwise_access += 2 * op.tensor_size(op.output_index());
    }
  }
  result.total_access += result.elementwise_access;
  FCU_COUNTER("fusion/plan_graph/chains").add(static_cast<std::int64_t>(result.chains.size()));
  FCU_COUNTER("fusion/plan_graph/absorbed_pointwise").add(result.absorbed_pointwise);
  FCU_COUNTER("fusion/plan_graph/absorbed_rowwise").add(result.absorbed_rowwise);
  FCU_COUNTER("fusion/plan_graph/spilled_rowwise").add(result.spilled_rowwise);
  return result;
}

}  // namespace fusecu
