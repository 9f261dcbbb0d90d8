#include "fusion/fusion_planner.hpp"

#include <limits>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace fusecu {

int FusionPlan::fused_pair_count() const {
  int count = 0;
  for (const PlanStep& s : steps) {
    if (s.op_indices.size() == 2) ++count;
  }
  return count;
}

std::optional<FusedPair> try_make_fused_pair(const TensorOp& producer, const TensorOp& consumer) {
  try {
    return FusedPair::from_ops(producer, consumer);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

FusionPlan plan_chain(const OperatorGraph& graph, BufferSize bs, PlannerPolicy policy) {
  FCU_CHECK(graph.num_ops() >= 1, "empty chain");
  FCU_CHECK(graph.is_linear_chain(), "planner requires a linear operator chain");
  ScopedSpan span("plan_chain", FCU_HISTOGRAM("time/plan_chain"));
  FCU_COUNTER("fusion/plan_chain/calls").add();
  FCU_COUNTER("fusion/plan_chain/ops").add(graph.num_ops());

  const int n = graph.num_ops();
  constexpr AccessCount kInf = std::numeric_limits<AccessCount>::max() / 4;

  // dp[i]: best MA covering ops [0, i); choice[i]: 1 = solo op i-1,
  // 2 = fused pair (i-2, i-1).
  std::vector<AccessCount> dp(static_cast<std::size_t>(n) + 1, kInf);
  std::vector<int> choice(static_cast<std::size_t>(n) + 1, 0);
  std::vector<AccessCount> solo_cost(static_cast<std::size_t>(n), 0);
  std::vector<std::string> solo_rule(static_cast<std::size_t>(n));
  std::vector<AccessCount> pair_cost(static_cast<std::size_t>(n), kInf);
  std::vector<std::string> pair_rule(static_cast<std::size_t>(n));

  for (int i = 0; i < n; ++i) {
    IntraOptResult r = optimize_intra(graph.op(i), bs);
    solo_cost[static_cast<std::size_t>(i)] = r.access.total;
    solo_rule[static_cast<std::size_t>(i)] = r.rule;
  }
  if (policy != PlannerPolicy::kNoFusion) {
    for (int i = 0; i + 1 < n; ++i) {
      FCU_COUNTER("fusion/plan_chain/pairs_considered").add();
      std::optional<FusedPair> pair = try_make_fused_pair(graph.op(i), graph.op(i + 1));
      if (!pair) continue;
      if (policy == PlannerPolicy::kPrinciple4 && !same_nra_regime(*pair, bs)) {
        FCU_COUNTER("fusion/plan_chain/pairs_rejected_principle4").add();
        continue;
      }
      std::optional<FusedOptResult> fused = optimize_fused_pair(*pair, bs);
      if (!fused) continue;
      FCU_COUNTER("fusion/plan_chain/pairs_planned").add();
      pair_cost[static_cast<std::size_t>(i)] = fused->access.total;
      pair_rule[static_cast<std::size_t>(i)] = fused->chosen.rule;
    }
  }

  dp[0] = 0;
  for (int i = 1; i <= n; ++i) {
    dp[static_cast<std::size_t>(i)] =
        dp[static_cast<std::size_t>(i) - 1] + solo_cost[static_cast<std::size_t>(i) - 1];
    choice[static_cast<std::size_t>(i)] = 1;
    if (i >= 2 && pair_cost[static_cast<std::size_t>(i) - 2] < kInf) {
      AccessCount fused_total =
          dp[static_cast<std::size_t>(i) - 2] + pair_cost[static_cast<std::size_t>(i) - 2];
      if (fused_total < dp[static_cast<std::size_t>(i)]) {
        dp[static_cast<std::size_t>(i)] = fused_total;
        choice[static_cast<std::size_t>(i)] = 2;
      }
    }
  }

  FusionPlan plan;
  plan.total_access = dp[static_cast<std::size_t>(n)];
  std::vector<PlanStep> reversed;
  for (int i = n; i > 0;) {
    if (choice[static_cast<std::size_t>(i)] == 2) {
      reversed.push_back({{i - 2, i - 1}, pair_cost[static_cast<std::size_t>(i) - 2],
                          "fused " + pair_rule[static_cast<std::size_t>(i) - 2]});
      i -= 2;
    } else {
      reversed.push_back(
          {{i - 1}, solo_cost[static_cast<std::size_t>(i) - 1], solo_rule[static_cast<std::size_t>(i) - 1]});
      i -= 1;
    }
  }
  plan.steps.assign(reversed.rbegin(), reversed.rend());
  FCU_COUNTER("fusion/plan_chain/pairs_fused").add(plan.fused_pair_count());
  return plan;
}

const char* to_string(PlannerPolicy policy) {
  switch (policy) {
    case PlannerPolicy::kPrinciple4:
      return "principle4";
    case PlannerPolicy::kCostOnly:
      return "cost-only";
    case PlannerPolicy::kNoFusion:
      return "no-fusion";
  }
  return "?";
}

}  // namespace fusecu
