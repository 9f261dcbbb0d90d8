#include "fusion/fusion_planner.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "fusion/chain_fusion.hpp"
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

std::vector<int> ChainGroup::op_indices() const {
  std::vector<int> ops;
  for (int i = first; i < first + len; ++i) ops.push_back(i);
  return ops;
}

std::vector<ChainGroup> partition_chain(int n, int max_group, const GroupCost& cost) {
  FCU_CHECK(n >= 1, "empty chain");
  FCU_CHECK(max_group >= 1, "max_group must be positive");
  const auto at = [](int i) { return static_cast<std::size_t>(i); };

  // best[i]: least MA covering ops [0, i); choice[i]: the last group of it.
  std::vector<AccessCount> best(at(n) + 1, 0);
  std::vector<ChainGroup> choice(at(n) + 1);
  for (int i = 1; i <= n; ++i) {
    for (int len = 1; len <= std::min(max_group, i); ++len) {
      const std::optional<AccessCount> c = cost(i - len, len);
      FCU_CHECK(c || len > 1, "a singleton group must be legal");
      if (!c) continue;
      const AccessCount total = best[at(i - len)] + *c;
      if (len == 1 || total < best[at(i)]) {
        best[at(i)] = total;
        choice[at(i)] = {i - len, len, *c};
      }
    }
  }

  std::vector<ChainGroup> groups;
  for (int i = n; i > 0; i -= choice[at(i)].len) groups.push_back(choice[at(i)]);
  std::reverse(groups.begin(), groups.end());
  return groups;
}

FusionPlan plan_chain(const OperatorGraph& graph, BufferSize bs, PlannerPolicy policy,
                      int max_group) {
  FCU_CHECK(graph.num_ops() >= 1, "empty chain");
  FCU_CHECK(graph.is_linear_chain(), "planner requires a linear operator chain");
  ScopedSpan span("plan_chain", FCU_HISTOGRAM("time/plan_chain"));
  FCU_COUNTER("fusion/plan_chain/calls").add();
  FCU_COUNTER("fusion/plan_chain/ops").add(graph.num_ops());

  const int n = graph.num_ops();
  const auto at = [](int i) { return static_cast<std::size_t>(i); };
  if (policy == PlannerPolicy::kNoFusion) max_group = std::min(max_group, 1);

  std::vector<IntraOptResult> solo;
  for (int i = 0; i < n; ++i) solo.push_back(optimize_intra(graph.op(i), bs));

  // pairs[i]: ops i and i + 1 as a fused pair, when the policy lets them
  // share a group.
  std::vector<std::optional<FusedPair>> pairs(at(n));
  for (int i = 0; max_group >= 2 && i + 1 < n; ++i) {
    FCU_COUNTER("fusion/plan_chain/pairs_considered").add();
    std::optional<FusedPair> pair = try_make_fused_pair(graph.op(i), graph.op(i + 1));
    if (pair && policy == PlannerPolicy::kPrinciple4 && !same_nra_regime(*pair, bs)) {
      FCU_COUNTER("fusion/plan_chain/pairs_rejected_principle4").add();
      continue;
    }
    pairs[at(i)] = std::move(pair);
  }

  std::vector<std::string> pair_rule(at(n));
  auto group_cost = [&](int first, int len) -> std::optional<AccessCount> {
    if (len == 1) return solo[at(first)].access.total;
    // A pair needs its FusedPair; Principle 4 asks it of every adjacent
    // pair in a longer group too.
    if (len == 2 || policy == PlannerPolicy::kPrinciple4) {
      for (int i = first; i + 1 < first + len; ++i) {
        if (!pairs[at(i)]) return std::nullopt;
      }
    }
    if (len == 2) {
      std::optional<FusedOptResult> fused = optimize_fused_pair(*pairs[at(first)], bs);
      if (!fused) return std::nullopt;
      FCU_COUNTER("fusion/plan_chain/pairs_planned").add();
      pair_rule[at(first)] = "fused " + fused->chosen.rule;
      return fused->access.total;
    }
    std::optional<ResidentChainResult> resident = optimize_resident_chain(graph, first, len, bs);
    if (!resident) return std::nullopt;
    return resident->total_access;
  };

  FusionPlan plan;
  for (const ChainGroup& g : partition_chain(n, max_group, group_cost)) {
    plan.steps.push_back({g.op_indices(), g.access,
                          g.len == 1   ? solo[at(g.first)].rule
                          : g.len == 2 ? pair_rule[at(g.first)]
                                       : "resident-chain x" + std::to_string(g.len)});
    plan.total_access += g.access;
  }
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
