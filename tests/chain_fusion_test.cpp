#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "common/rng.hpp"
#include "fusion/chain_fusion.hpp"

namespace fusecu {
namespace {

OperatorGraph three_mm_chain() {
  // X1 = X0(64, 32) W1(32, 48); X2 = X1 W2(48, 32); X3 = X2 W3(32, 16).
  return MatMulChainBuilder(64, {32, 48, 32, 16}, "c").graph();
}

TEST(ResidentChain, ReachesFusedLowerBound) {
  OperatorGraph g = three_mm_chain();
  const BufferSize bs = 16 * 1024;
  auto r = optimize_resident_chain(g, 0, 3, bs);
  ASSERT_TRUE(r.has_value());
  // Externals once each: X0 + W1 + W2 + W3 + X3.
  const AccessCount expected = 64 * 32 + 32 * 48 + 48 * 32 + 32 * 16 + 64 * 16;
  EXPECT_EQ(r->total_access, expected);
  EXPECT_LE(r->buffer_footprint, bs);
  ASSERT_EQ(r->dataflows.size(), 3u);
  // Every per-op dataflow realizes single access for all three tensors.
  for (int i = 0; i < 3; ++i) {
    AccessBreakdown b = evaluate_access(g.op(i), r->dataflows[static_cast<std::size_t>(i)]);
    EXPECT_EQ(b.non_redundant_tensors(g.op(i)), 3) << "op " << i;
  }
}

TEST(ResidentChain, FootprintAccountsIntermediatesAndPeakTiles) {
  OperatorGraph g = three_mm_chain();
  auto r = optimize_resident_chain(g, 0, 3, 1 << 20);
  ASSERT_TRUE(r.has_value());
  const Index intermediates = 64 * 48 + 64 * 32;  // X1 + X2
  EXPECT_GE(r->buffer_footprint, intermediates);
  EXPECT_LE(r->buffer_footprint, intermediates + 64 + 48 + 32 + 16 + 64);
}

TEST(ResidentChain, InfeasibleWhenIntermediatesOverflow) {
  OperatorGraph g = three_mm_chain();
  // X1 + X2 = 3072 + 2048 elements; anything below cannot hold them.
  EXPECT_FALSE(optimize_resident_chain(g, 0, 3, 4096).has_value());
}

TEST(ResidentChain, SubsliceAndValidation) {
  OperatorGraph g = three_mm_chain();
  auto tail = optimize_resident_chain(g, 1, 2, 16 * 1024);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->total_access, 64 * 48 + 48 * 32 + 32 * 16 + 64 * 16);
  EXPECT_THROW(optimize_resident_chain(g, 0, 1, 1024), std::invalid_argument);
  EXPECT_THROW(optimize_resident_chain(g, 2, 2, 1024), std::invalid_argument);
}

TEST(PlanChainExtended, FusesWholeChainWithBigBuffer) {
  OperatorGraph g = three_mm_chain();
  FusionPlan plan = plan_chain(g, 16 * 1024, PlannerPolicy::kCostOnly, 4);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].op_indices, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(plan.steps[0].description, "resident-chain x3");
  EXPECT_EQ(plan.total_access, optimize_resident_chain(g, 0, 3, 16 * 1024)->total_access);
}

TEST(PlanChainExtended, DegradesToPairsWhenChainDoesNotFit) {
  OperatorGraph g = three_mm_chain();
  // Enough for a fused pair but not for both intermediates at once.
  FusionPlan tight = plan_chain(g, 4200, PlannerPolicy::kCostOnly, 4);
  for (const PlanStep& s : tight.steps) EXPECT_LE(s.op_indices.size(), 2u);
  // And never worse than the pairwise planner.
  FusionPlan pairwise = plan_chain(g, 4200, PlannerPolicy::kCostOnly);
  EXPECT_LE(tight.total_access, pairwise.total_access);
}

/// The default group limit is the paper's pairwise planner, and solo steps
/// carry their intra-op rule at every limit.
TEST(PlanChainExtended, MatchesPairwisePlannerAtMaxGroupTwo) {
  OperatorGraph g = three_mm_chain();
  for (BufferSize bs : {BufferSize{1024}, BufferSize{8 * 1024}, BufferSize{64 * 1024}}) {
    FusionPlan pairwise = plan_chain(g, bs, PlannerPolicy::kCostOnly);
    FusionPlan explicit_two = plan_chain(g, bs, PlannerPolicy::kCostOnly, 2);
    EXPECT_EQ(explicit_two.total_access, pairwise.total_access) << "bs=" << bs;
    ASSERT_EQ(explicit_two.steps.size(), pairwise.steps.size()) << "bs=" << bs;
    for (std::size_t i = 0; i < pairwise.steps.size(); ++i) {
      EXPECT_LE(pairwise.steps[i].op_indices.size(), 2u);
      EXPECT_EQ(explicit_two.steps[i].op_indices, pairwise.steps[i].op_indices);
      EXPECT_EQ(explicit_two.steps[i].description, pairwise.steps[i].description);
    }
    for (const PlanStep& s : plan_chain(g, bs, PlannerPolicy::kCostOnly, 4).steps) {
      if (s.op_indices.size() == 1) {
        EXPECT_EQ(s.description, optimize_intra(g.op(s.op_indices[0]), bs).rule);
      }
    }
  }
}

TEST(PlanChainExtended, NoFusionPolicyYieldsSingletons) {
  OperatorGraph g = three_mm_chain();
  FusionPlan plan = plan_chain(g, 1 << 20, PlannerPolicy::kNoFusion, 4);
  EXPECT_EQ(plan.steps.size(), 3u);
  for (const PlanStep& s : plan.steps) EXPECT_EQ(s.op_indices.size(), 1u);
}

/// Random cost tables with small costs (many ties) and illegal groups: the
/// partitioner must price each candidate group once, in order, and return
/// the cheapest legal split; among the cheapest, the one whose group
/// lengths read from the last op backwards are lexicographically smallest
/// (the shortest group ending at each op).
TEST(PlanChainExtended, DpIsOptimalAgainstBruteForcePartitions) {
  Rng rng(24);
  for (int trial = 0; trial < 400; ++trial) {
    const int n = static_cast<int>(rng.uniform(1, 7));
    const int max_group = static_cast<int>(rng.uniform(1, 4));
    std::map<std::pair<int, int>, std::optional<AccessCount>> table;
    for (int first = 0; first < n; ++first) {
      for (int len = 1; len <= max_group && first + len <= n; ++len) {
        std::optional<AccessCount> c = rng.uniform(0, 6);
        if (len > 1 && rng.chance(0.3)) c = std::nullopt;
        table[{first, len}] = c;
      }
    }

    std::vector<std::pair<int, int>> calls;
    std::vector<ChainGroup> groups = partition_chain(n, max_group, [&](int first, int len) {
      calls.push_back({first, len});
      return table.at({first, len});
    });

    // Each candidate once, by last op and then by length.
    std::vector<std::pair<int, int>> expected_calls;
    for (int end = 1; end <= n; ++end) {
      for (int len = 1; len <= std::min(max_group, end); ++len) {
        expected_calls.push_back({end - len, len});
      }
    }
    EXPECT_EQ(calls, expected_calls) << "trial " << trial;

    // Brute force: every composition of n into legal parts.
    std::optional<AccessCount> brute;
    std::vector<int> brute_reversed_lengths;
    std::vector<int> parts;
    std::function<void(int, AccessCount)> visit = [&](int at, AccessCount total) {
      if (at == n) {
        std::vector<int> reversed(parts.rbegin(), parts.rend());
        if (!brute || total < *brute || (total == *brute && reversed < brute_reversed_lengths)) {
          brute = total;
          brute_reversed_lengths = reversed;
        }
        return;
      }
      for (int len = 1; len <= max_group && at + len <= n; ++len) {
        const std::optional<AccessCount>& c = table.at({at, len});
        if (!c) continue;
        parts.push_back(len);
        visit(at + len, total + *c);
        parts.pop_back();
      }
    };
    visit(0, 0);

    AccessCount total = 0;
    std::vector<int> reversed_lengths;
    int next = 0;
    for (const ChainGroup& g : groups) {
      EXPECT_EQ(g.first, next) << "trial " << trial;
      EXPECT_EQ(g.access, *table.at({g.first, g.len})) << "trial " << trial;
      next = g.first + g.len;
      total += g.access;
      reversed_lengths.insert(reversed_lengths.begin(), g.len);
    }
    EXPECT_EQ(next, n) << "trial " << trial;
    ASSERT_TRUE(brute.has_value());
    EXPECT_EQ(total, *brute) << "trial " << trial;
    EXPECT_EQ(reversed_lengths, brute_reversed_lengths) << "trial " << trial;
  }
}

/// Ties go to the shorter group: equal-cost solo ops beat their pair, and a
/// pair beats an equal-cost group of three ending at the same op.
TEST(PlanChainExtended, ShorterGroupWinsTies) {
  auto lengths = [](int n, int max_group, std::map<std::pair<int, int>, AccessCount> table) {
    std::vector<int> out;
    for (const ChainGroup& g : partition_chain(n, max_group, [&](int first, int len) {
           auto it = table.find({first, len});
           return it == table.end() ? std::nullopt : std::optional<AccessCount>(it->second);
         })) {
      out.push_back(g.len);
    }
    return out;
  };
  EXPECT_EQ(lengths(2, 2, {{{0, 1}, 5}, {{1, 1}, 5}, {{0, 2}, 10}}), (std::vector<int>{1, 1}));
  EXPECT_EQ(lengths(2, 2, {{{0, 1}, 5}, {{1, 1}, 5}, {{0, 2}, 9}}), (std::vector<int>{2}));
  EXPECT_EQ(lengths(3, 3, {{{0, 1}, 2}, {{1, 1}, 9}, {{2, 1}, 9}, {{1, 2}, 4}, {{0, 3}, 6}}),
            (std::vector<int>{1, 2}));
  EXPECT_EQ(lengths(3, 3, {{{0, 1}, 2}, {{1, 1}, 9}, {{2, 1}, 9}, {{1, 2}, 4}, {{0, 3}, 5}}),
            (std::vector<int>{3}));
  EXPECT_THROW(lengths(2, 2, {{{0, 1}, 5}, {{0, 2}, 9}}), std::invalid_argument);
}

}  // namespace
}  // namespace fusecu
