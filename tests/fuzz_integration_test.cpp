#include <gtest/gtest.h>

#include "check/gen.hpp"
#include "common/rng.hpp"
#include "fusion/graph_planner.hpp"
#include "sim/tiled_executor.hpp"
#include "test_util.hpp"

namespace fusecu {
namespace {

/// Randomized cross-component checks: every seed drives several trials of
/// (a) fused-schedule execution vs the fused analytical model, (b) graph
/// planning with interleaved pointwise elementwise ops vs the equivalent
/// direct chain.
///
/// Workloads come from the conformance-harness generators (src/check/gen),
/// so the suite inherits their adversarial bias toward unit dims, primes and
/// powers of two; seeds are contiguous ranges, not hand-picked values, and
/// widening coverage is a one-line change.

class FusedExecutorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FusedExecutorFuzz, RandomPhasedSchedulesMatchModelExactly) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    FusedPair pair = test_util::random_pair(rng, 16);
    PhasedFusedDataflow df = test_util::random_phased(rng, pair);

    auto [a, b, d] = test_util::make_fused_inputs(pair, GetParam() * 97 + trial);
    FuseCuQuad quad(8);
    FusedExecutionResult r = execute_fused_phased(pair, df, a, b, d, quad);
    EXPECT_EQ(r.output, matmul_reference(matmul_reference(a, b), d)) << df.to_string();
    EXPECT_EQ(r.total_traffic, evaluate_phased(pair, df).total) << df.to_string();
    EXPECT_EQ(r.traffic_c, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedExecutorFuzz, ::testing::Range<std::uint64_t>(500, 516));

class GraphPlannerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphPlannerFuzz, PointwiseOpsNeverChangeChainCost) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    Workload w = gen_workload_of(WorkloadKind::kChain, rng);
    GraphPlan with_ew = plan_graph(w.chain.with_elementwise(), w.bs, PlannerPolicy::kCostOnly, 3);
    GraphPlan direct = plan_graph(w.chain.direct(), w.bs, PlannerPolicy::kCostOnly, 3);
    EXPECT_EQ(with_ew.total_access, direct.total_access) << w.to_string();
    EXPECT_EQ(with_ew.spilled_rowwise, 0);
    EXPECT_EQ(with_ew.elementwise_access, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphPlannerFuzz, ::testing::Range<std::uint64_t>(600, 612));

}  // namespace
}  // namespace fusecu
