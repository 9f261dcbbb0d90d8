#include "search/dat_optimizer.hpp"

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace fusecu {

namespace {

std::int64_t intra_space_size(const TensorOp& op) {
  std::int64_t size = 6;
  for (int d = 0; d < op.num_dims(); ++d) {
    size *= static_cast<std::int64_t>(tile_candidates(op.extent(d)).size());
  }
  return size;
}

std::int64_t fused_space_size(const FusedPair& pair) {
  return 2 * static_cast<std::int64_t>(tile_candidates(pair.m()).size()) *
         static_cast<std::int64_t>(tile_candidates(pair.k()).size()) *
         static_cast<std::int64_t>(tile_candidates(pair.l()).size()) *
         static_cast<std::int64_t>(tile_candidates(pair.n()).size());
}

}  // namespace

DatOptimizer::DatOptimizer(DatParams params) : params_(params) {}

std::optional<IntraSearchResult> DatOptimizer::optimize_intra(const TensorOp& op,
                                                              BufferSize bs) const {
  ScopedSpan span("dat_optimize_intra", FCU_HISTOGRAM("time/dat_optimize_intra"));
  std::optional<IntraSearchResult> best = ga_intra(op, bs, params_.ga, params_.seed);
  if (params_.exhaustive_refinement && intra_space_size(op) <= params_.exhaustive_space_limit) {
    std::optional<IntraSearchResult> exact = exhaustive_intra(op, bs);
    if (exact && (!best || exact->access.total < best->access.total)) best = exact;
  }
  return best;
}

std::optional<FusedSearchResult> DatOptimizer::optimize_pair(const FusedPair& pair,
                                                             BufferSize bs) const {
  ScopedSpan span("dat_optimize_pair", FCU_HISTOGRAM("time/dat_optimize_pair"));
  std::optional<FusedSearchResult> best = ga_fused(pair, bs, params_.ga, params_.seed);
  if (params_.exhaustive_refinement && fused_space_size(pair) <= params_.exhaustive_space_limit) {
    std::optional<FusedSearchResult> exact = exhaustive_fused(pair, bs);
    if (exact && (!best || exact->access.total < best->access.total)) best = exact;
  }
  return best;
}

FusionPlan DatOptimizer::plan_chain(const OperatorGraph& graph, BufferSize bs) const {
  FCU_CHECK(graph.num_ops() >= 1, "empty chain");
  FCU_CHECK(graph.is_linear_chain(), "DAT planner requires a linear operator chain");
  ScopedSpan span("dat_plan_chain", FCU_HISTOGRAM("time/dat_plan_chain"));

  const int n = graph.num_ops();
  std::vector<AccessCount> solo;
  std::vector<std::optional<AccessCount>> paired(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::optional<IntraSearchResult> r = optimize_intra(graph.op(i), bs);
    FCU_CHECK(r.has_value(), "buffer too small for op " + graph.op(i).name());
    solo.push_back(r->access.total);
  }
  for (int i = 0; i + 1 < n; ++i) {
    std::optional<FusedPair> pair = try_make_fused_pair(graph.op(i), graph.op(i + 1));
    if (!pair) continue;
    if (auto r = optimize_pair(*pair, bs)) paired[static_cast<std::size_t>(i)] = r->access.total;
  }

  auto group_cost = [&](int first, int len) -> std::optional<AccessCount> {
    return len == 1 ? solo[static_cast<std::size_t>(first)]
                    : paired[static_cast<std::size_t>(first)];
  };
  FusionPlan plan;
  for (const ChainGroup& g : partition_chain(n, 2, group_cost)) {
    plan.steps.push_back(
        {g.op_indices(), g.access, g.len == 1 ? "searched solo" : "searched fused"});
    plan.total_access += g.access;
  }
  return plan;
}

}  // namespace fusecu
