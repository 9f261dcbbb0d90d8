#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "principles/principle_optimizer.hpp"
#include "search/exhaustive.hpp"
#include "test_util.hpp"

namespace fusecu {
namespace {

// --- The paper's worked example (Sec. III-A4): BERT MM 1024x768x768 with a
// 512K-element buffer lies between D_min^2/2 = 294,912 and |Tensor_min| =
// 589,824, so the optimal dataflow is Two-NRA with K untiled; tensor B's
// memory access drops to 2KL while A and C are non-redundant.
TEST(PrincipleOptimizer, PaperWorkedExampleBert) {
  TensorOp op = TensorOp::matmul("bert", 1024, 768, 768);
  const BufferSize bs = 512 * 1024;

  EXPECT_EQ(classify_buffer(op, bs), BufferClass::kMedium);
  IntraOptResult r = optimize_intra(op, bs);
  EXPECT_EQ(r.nra, NraKind::kTwo);
  EXPECT_TRUE(r.dataflow.untiled(op, mm::kDimK));
  EXPECT_EQ(r.access.per_tensor[mm::kTensorA], 1024LL * 768);
  EXPECT_EQ(r.access.per_tensor[mm::kTensorB], 2 * 768LL * 768);
  EXPECT_EQ(r.access.per_tensor[mm::kTensorC], 1024LL * 768);
  EXPECT_LE(r.access.buffer_footprint, bs);
}

TEST(BufferClass, ThresholdsMatchPaperTable) {
  TensorOp op = TensorOp::matmul("bert", 1024, 768, 768);
  const Index dmin2 = 768 * 768;
  const Index tensor_min = 768 * 768;
  EXPECT_EQ(classify_buffer(op, dmin2 / 4), BufferClass::kTiny);
  EXPECT_EQ(classify_buffer(op, dmin2 / 4 + 1), BufferClass::kSmall);
  EXPECT_EQ(classify_buffer(op, dmin2 / 2), BufferClass::kSmall);
  EXPECT_EQ(classify_buffer(op, dmin2 / 2 + 1), BufferClass::kMedium);
  EXPECT_EQ(classify_buffer(op, tensor_min), BufferClass::kMedium);
  EXPECT_EQ(classify_buffer(op, tensor_min + 1), BufferClass::kLarge);

  ShiftRange range = single_two_shift_range(op);
  EXPECT_EQ(range.low, dmin2 / 4);
  EXPECT_EQ(range.high, dmin2 / 2);
}

// --- Principle 1: stationary tiles maximized, third dim at 1; the
// smallest tensor (here C, since K dominates) becomes stationary.
TEST(Principle1, SingleNraConstruction) {
  TensorOp op = TensorOp::matmul("mm", 512, 4096, 512);
  const BufferSize bs = 16 * 1024;  // tiny vs D_min^2/4 = 64K
  ASSERT_EQ(classify_buffer(op, bs), BufferClass::kTiny);

  auto candidates = make_single_nra(op, bs, mm::kTensorC);
  ASSERT_FALSE(candidates.empty());
  for (const auto& c : candidates) {
    AccessBreakdown b = evaluate_access(op, c.dataflow);
    EXPECT_LE(b.buffer_footprint, bs);
    EXPECT_EQ(c.dataflow.tile[mm::kDimK], 1);  // non-stationary dim minimized
  }
  IntraOptResult r = optimize_intra(op, bs);
  EXPECT_EQ(r.nra, NraKind::kSingle);
  EXPECT_EQ(stationary_tensor(op, r.dataflow), mm::kTensorC);
  // Both stationary tiles are maximized near sqrt(BS) (trip-count rounding
  // may trade a few elements between them, but neither collapses).
  EXPECT_GE(r.dataflow.tile[mm::kDimM], 96);
  EXPECT_GE(r.dataflow.tile[mm::kDimL], 96);
  EXPECT_EQ(r.dataflow.tile[mm::kDimK], 1);
}

TEST(Principle1, ChoosesSmallestTensorAsStationary) {
  // B (K x L = 64 x 64) is far smaller than A and C: keeping it stationary
  // removes the smallest single-access term, as Principle 1 prescribes.
  TensorOp op = TensorOp::matmul("mm", 4096, 64, 64);
  const BufferSize bs = 512;  // tiny vs D_min^2/4 = 1024
  IntraOptResult r = optimize_intra(op, bs);
  EXPECT_EQ(r.nra, NraKind::kSingle);
  EXPECT_EQ(stationary_tensor(op, r.dataflow), mm::kTensorB);
}

// --- Principle 2: feasibility boundary and closed-form tile.
TEST(Principle2, TwoNraConstruction) {
  TensorOp op = TensorOp::matmul("mm", 1024, 768, 768);
  // Below 2*D_U + 1 the construction cannot fit.
  EXPECT_FALSE(make_two_nra(op, 2 * 768, mm::kDimK, mm::kDimM).has_value());
  auto c = make_two_nra(op, 512 * 1024, mm::kDimK, mm::kDimM);
  ASSERT_TRUE(c.has_value());
  const Index t_m = c->dataflow.tile[mm::kDimM];
  EXPECT_EQ(t_m, (512 * 1024 - 768) / 769);
  EXPECT_EQ(c->dataflow.tile[mm::kDimL], 1);
  EXPECT_TRUE(c->dataflow.untiled(op, mm::kDimK));
  EXPECT_EQ(classify_nra(op, c->dataflow), NraKind::kTwo);
}

// --- Principle 3: resident smallest tensor, everything accessed once.
TEST(Principle3, ThreeNraConstruction) {
  TensorOp op = TensorOp::matmul("mm", 2048, 256, 256);
  const Index b_size = 256 * 256;
  EXPECT_FALSE(make_three_nra(op, b_size + 511, mm::kTensorB).has_value());
  auto c = make_three_nra(op, b_size + 512, mm::kTensorB);
  ASSERT_TRUE(c.has_value());
  AccessBreakdown b = evaluate_access(op, c->dataflow);
  EXPECT_EQ(b.total, op.ideal_min_access());
  EXPECT_EQ(classify_nra(op, c->dataflow), NraKind::kThree);
}

TEST(PrincipleOptimizer, LargeBufferReachesIdealLowerBound) {
  TensorOp op = TensorOp::matmul("mm", 512, 384, 384);
  const BufferSize bs = 4 * 1024 * 1024;
  ASSERT_EQ(classify_buffer(op, bs), BufferClass::kLarge);
  IntraOptResult r = optimize_intra(op, bs);
  EXPECT_EQ(r.nra, NraKind::kThree);
  EXPECT_EQ(r.access.total, op.ideal_min_access());
}

TEST(PrincipleOptimizer, ThrowsWhenBufferCannotHoldWorkingSet) {
  TensorOp op = TensorOp::matmul("mm", 64, 64, 64);
  EXPECT_THROW(optimize_intra(op, 2), std::invalid_argument);
  EXPECT_THROW(optimize_intra(op, 0), std::invalid_argument);
  EXPECT_THROW(optimize_intra(op, -100), std::invalid_argument);
  EXPECT_NO_THROW(optimize_intra(op, 3));
}

TEST(PrincipleOptimizer, MonotoneInBufferSize) {
  TensorOp op = TensorOp::matmul("mm", 1024, 768, 768);
  AccessCount prev = optimize_intra(op, 1024).access.total;
  for (BufferSize bs = 2048; bs <= 2 * 1024 * 1024; bs *= 2) {
    AccessCount cur = optimize_intra(op, bs).access.total;
    EXPECT_LE(cur, prev) << "more buffer must never cost more accesses, bs=" << bs;
    prev = cur;
  }
}

// --- The headline optimality claim: the one-shot principled dataflow is at
// least as good as full exhaustive search over loop orders and the
// divisor/power-of-two tile grid, across random shapes and buffer classes.
struct OptimalityCase {
  Index m, k, l;
  BufferSize bs;
};

class PrincipleOptimality : public ::testing::TestWithParam<OptimalityCase> {};

TEST_P(PrincipleOptimality, MatchesOrBeatsExhaustiveSearch) {
  const auto& p = GetParam();
  TensorOp op = TensorOp::matmul("mm", p.m, p.k, p.l);
  IntraOptResult principled = optimize_intra(op, p.bs);
  auto searched = exhaustive_intra(op, p.bs);
  ASSERT_TRUE(searched.has_value());
  EXPECT_LE(principled.access.total, searched->access.total)
      << "shape " << op.to_string() << " bs=" << p.bs << " principled rule " << principled.rule
      << " vs searched " << searched->dataflow.to_string(op);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndBuffers, PrincipleOptimality,
    ::testing::Values(
        // Paper example across the four buffer classes.
        OptimalityCase{1024, 768, 768, 64 * 1024},        // tiny
        OptimalityCase{1024, 768, 768, 200 * 1024},       // small
        OptimalityCase{1024, 768, 768, 512 * 1024},       // medium
        OptimalityCase{1024, 768, 768, 1024 * 1024},      // large
        // Attention-score shapes (square L) and skinny heads.
        OptimalityCase{256, 64, 256, 16 * 1024},
        OptimalityCase{4096, 128, 4096, 128 * 1024},
        OptimalityCase{4096, 128, 4096, 1024 * 1024},
        // Degenerate / extreme aspect ratios.
        OptimalityCase{1, 512, 512, 4096},
        OptimalityCase{512, 1, 512, 4096},
        OptimalityCase{512, 512, 1, 4096},
        OptimalityCase{7, 13, 17, 64},
        OptimalityCase{127, 127, 127, 1000},
        OptimalityCase{128, 4096, 128, 32 * 1024},
        OptimalityCase{2048, 2048, 16, 8 * 1024},
        OptimalityCase{16, 16, 16, 3},
        OptimalityCase{16, 16, 16, 900}));

class PrincipleOptimalityRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrincipleOptimalityRandom, MatchesOrBeatsExhaustiveSearch) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    TensorOp op = test_util::random_matmul(rng, 300);
    const BufferSize bs = gen_buffer_size(rng, op);
    IntraOptResult principled = optimize_intra(op, bs);
    auto searched = exhaustive_intra(op, bs);
    ASSERT_TRUE(searched.has_value());
    EXPECT_LE(principled.access.total, searched->access.total)
        << "shape " << op.to_string() << " bs=" << bs;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrincipleOptimalityRandom,
                         ::testing::Values(101ull, 102ull, 103ull, 104ull, 105ull, 106ull,
                                           107ull, 108ull, 109ull, 110ull));

// --- Shapes where Principle 1's optimum sits on a trip-count breakpoint of
// the second stationary dimension that d1's breakpoints miss: the two-tile
// construction must seed the mirrored probe from d2's own neighbourhood.
// Each case pins the exhaustive optimum, which the principles must reach.
struct PinnedCase {
  Index m, k, l;
  BufferSize bs;
  AccessCount optimum;
};

class TwoSidedSeeding : public ::testing::TestWithParam<PinnedCase> {};

TEST_P(TwoSidedSeeding, ReachesTheExhaustiveOptimum) {
  const auto& p = GetParam();
  TensorOp op = TensorOp::matmul("mm", p.m, p.k, p.l);
  auto searched = exhaustive_intra(op, p.bs);
  ASSERT_TRUE(searched.has_value());
  ASSERT_EQ(searched->access.total, p.optimum);
  IntraOptResult principled = optimize_intra(op, p.bs);
  EXPECT_EQ(principled.access.total, p.optimum) << "rule " << principled.rule;
}

INSTANTIATE_TEST_SUITE_P(Census, TwoSidedSeeding,
                         ::testing::Values(PinnedCase{76, 67, 23, 45, 46303},
                                           PinnedCase{75, 33, 21, 39, 22167},
                                           PinnedCase{64, 38, 86, 44, 82240},
                                           PinnedCase{96, 64, 21, 40, 52032},
                                           PinnedCase{82, 67, 18, 36, 42780}));

// --- Seeded sweep of small shapes, one buffer drawn from each of the four
// buffer bands per shape (tiny, small, medium, large).
TEST(PrincipleOptimality, SmallShapesInEveryBufferBand) {
  Rng rng(4242);
  for (int trial = 0; trial < 150; ++trial) {
    const Index m = rng.uniform(2, 64), k = rng.uniform(2, 64), l = rng.uniform(2, 64);
    TensorOp op = TensorOp::matmul("mm", m, k, l);
    const Index d2 = op.min_extent() * op.min_extent();
    const Index tmin = op.tensor_size(op.smallest_tensor());
    const BufferSize bands[] = {
        rng.uniform(3, std::max<Index>(3, d2 / 4)),
        rng.uniform(std::max<Index>(3, d2 / 4), std::max<Index>(3, d2 / 2)),
        rng.uniform(std::max<Index>(3, d2 / 2), std::max<Index>(3, tmin)),
        rng.uniform(std::max<Index>(3, tmin), std::max<Index>(3, 2 * tmin)),
    };
    for (BufferSize bs : bands) {
      IntraOptResult principled = optimize_intra(op, bs);
      auto searched = exhaustive_intra(op, bs);
      ASSERT_TRUE(searched.has_value());
      EXPECT_LE(principled.access.total, searched->access.total)
          << "shape " << op.to_string() << " bs=" << bs << " rule " << principled.rule;
    }
  }
}

/// A buffer for \p op drawn from the tiny 3..64 range half the time, else
/// from the harness's regime-biased distribution.
BufferSize mixed_buffer(Rng& rng, const TensorOp& op) {
  return rng.chance(0.5) ? rng.uniform(3, 64) : std::max<BufferSize>(3, gen_buffer_size(rng, op));
}

/// Canonical layout for a third of the draws, else one of three permuted
/// layouts with A stored transposed.
TensorOp mixed_layout(Rng& rng, const TensorOp& op) {
  constexpr std::array<std::array<int, 3>, 3> kPerms = {{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}}};
  const Index layout = rng.uniform(0, 3);
  return layout == 3 ? op
                     : test_util::permuted_matmul(op, kPerms[static_cast<std::size_t>(layout)]);
}

// --- optimize_intra is exactly the argmin of the public candidate set:
// total, then footprint, then first in principle_candidates() order.  The
// optimizer skips Principle 1 families by their floors, so this is also the
// proof that skipping never changes a plan or a rule string.
TEST(PrincipleCandidates, OptimizeIntraIsTheArgminOfTheCandidates) {
  Rng rng(77);
  for (int trial = 0; trial < 20000; ++trial) {
    const TensorOp op = mixed_layout(rng, test_util::random_matmul(rng, trial % 2 ? 200 : 40));
    const BufferSize bs = mixed_buffer(rng, op);
    const PrincipleCandidate* best = nullptr;
    AccessBreakdown best_access;
    const std::vector<PrincipleCandidate> candidates = principle_candidates(op, bs);
    for (const PrincipleCandidate& c : candidates) {
      AccessBreakdown b = evaluate_access(op, c.dataflow);
      if (!best || b.total < best_access.total ||
          (b.total == best_access.total && b.buffer_footprint < best_access.buffer_footprint)) {
        best = &c;
        best_access = b;
      }
    }
    ASSERT_NE(best, nullptr);
    IntraOptResult r = optimize_intra(op, bs);
    ASSERT_EQ(r.dataflow.loop_order, best->dataflow.loop_order) << op.to_string() << " bs=" << bs;
    ASSERT_EQ(r.dataflow.tile, best->dataflow.tile) << op.to_string() << " bs=" << bs;
    ASSERT_EQ(r.access.per_tensor, best_access.per_tensor);
    ASSERT_EQ(r.access.buffer_footprint, best_access.buffer_footprint);
    ASSERT_EQ(r.rule, best->rule);
    ASSERT_EQ(r.nra, static_cast<NraKind>(best_access.non_redundant_tensors(op)));
    ASSERT_EQ(r.nra, optimal_regime(op, bs));
  }
}

// --- The Principle 1 floors optimize_intra() prunes by are admissible:
// every construction of a family prices at or above the family's floor,
// after the same 1e-9 shading the optimizer applies.  Tiny buffers, unit
// extents (where the floor falls back to the ideal) and permuted layouts
// included.
TEST(PrincipleFloors, EveryPrinciple1CandidatePricesAtOrAboveItsFamilyFloor) {
  Rng rng(2026);
  int checked = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const TensorOp op = mixed_layout(rng, test_util::random_matmul(rng, trial % 2 ? 300 : 24));
    const BufferSize bs = mixed_buffer(rng, op);
    for (int t = 0; t < 3; ++t) {
      const double floor = detail::single_nra_floor(op, bs, t);
      for (const PrincipleCandidate& c : make_single_nra(op, bs, t)) {
        const AccessCount total = evaluate_access(op, c.dataflow).total;
        ASSERT_FALSE(floor_exceeds(floor, total))
            << op.to_string() << " bs=" << bs << " " << c.rule << " "
            << c.dataflow.to_string(op) << " prices " << total << " below its floor " << floor;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 200000);
}

TEST(PrincipleFloors, UnitThirdExtentFallsBackToTheIdeal) {
  // With K = 1 the stationary C's re-read partners A and B are each read
  // once whatever the tiles, so the AM-GM term would not be admissible.
  const TensorOp op = TensorOp::matmul("mm", 64, 1, 64);
  EXPECT_EQ(detail::single_nra_floor(op, 16, mm::kTensorC),
            static_cast<double>(op.ideal_min_access()));
  for (const PrincipleCandidate& c : make_single_nra(op, 16, mm::kTensorC)) {
    EXPECT_GE(evaluate_access(op, c.dataflow).total, op.ideal_min_access());
  }
}

TEST(PrincipleFloors, FamiliesThatCannotWinAreNotPriced) {
  // B (256 x 256) plus a row and column of A and C fits, so the ideal is
  // reachable.  Stationary A or C re-reads a 2048-row tensor, which puts
  // their floors strictly above the ideal: only B's family is priced.
  const TensorOp op = TensorOp::matmul("mm", 2048, 256, 256);
  const BufferSize bs = 256 * 256 + 512;
  const double ideal = static_cast<double>(op.ideal_min_access());
  EXPECT_TRUE(floor_exceeds(detail::single_nra_floor(op, bs, mm::kTensorA), op.ideal_min_access()));
  EXPECT_TRUE(floor_exceeds(detail::single_nra_floor(op, bs, mm::kTensorC), op.ideal_min_access()));
  EXPECT_EQ(detail::single_nra_floor(op, bs, mm::kTensorB), ideal);

  Counter& priced = MetricsRegistry::global().counter("principles/optimize_intra/candidates");
  const std::int64_t before = priced.value();
  EXPECT_EQ(optimize_intra(op, bs).access.total, op.ideal_min_access());
  const auto skipped = static_cast<std::int64_t>(make_single_nra(op, bs, mm::kTensorA).size() +
                                                 make_single_nra(op, bs, mm::kTensorC).size());
  EXPECT_GT(skipped, 0);
  EXPECT_EQ(priced.value() - before,
            static_cast<std::int64_t>(principle_candidates(op, bs).size()) - skipped);
}

// --- optimize_intra() prices each Principle 1 probe from its trip counts,
// not with the access model: that flat price must equal evaluate_access()
// on every construction principle_candidates() emits.  Unit third extents,
// t = e boundaries, permuted layouts and buffers 3..64 included.
TEST(FlatPricing, Principle1ProbePriceMatchesTheAccessModel) {
  Rng rng(2810);
  int checked = 0, unit_third = 0, untiled = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    const TensorOp op = mixed_layout(rng, test_util::random_matmul(rng, trial % 2 ? 160 : 12));
    const BufferSize bs = mixed_buffer(rng, op);
    for (int t = 0; t < 3; ++t) {
      for (const PrincipleCandidate& c : make_single_nra(op, bs, t)) {
        const Dataflow& df = c.dataflow;
        const auto d1 = static_cast<std::size_t>(df.loop_order[0]);
        const auto d2 = static_cast<std::size_t>(df.loop_order[1]);
        const std::array<AccessCount, 3> flat =
            detail::single_nra_probe_access(op, t, df.tile[d1], df.tile[d2]);
        ASSERT_EQ(std::vector<AccessCount>(flat.begin(), flat.end()),
                  evaluate_access(op, df).per_tensor)
            << op.to_string() << " bs=" << bs << " " << c.rule << " " << df.to_string(op);
        ++checked;
        unit_third += op.extent(df.loop_order[2]) == 1 ? 1 : 0;
        untiled += df.tile[d2] == op.extent(df.loop_order[1]) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(checked, 100000);
  EXPECT_GT(unit_third, 1000);
  EXPECT_GT(untiled, 10000);
}

/// The two-tile sweep as written before the probe generator: the same
/// seeds, every probe's tiles re-snapped to the smallest with their trip
/// counts (the probed side included), the fitting pairs collected as an
/// ascending set.  Kept here so the generator is held against the seeding
/// it replaced, not against a collector over itself.
std::vector<std::pair<Index, Index>> reference_two_tile_pairs(Index e1, Index e2, double w1,
                                                              double w2, Index c1, Index c2,
                                                              BufferSize bs) {
  std::vector<std::pair<Index, Index>> pairs;
  if (1 + c1 + c2 > bs) return pairs;
  const Index t_sym =
      std::max<Index>(1, (isqrt((c1 + c2) * (c1 + c2) + 4 * bs) - (c1 + c2)) / 2);
  Index t_weighted = t_sym;
  const double a = w1 * static_cast<double>(e1);
  const double b = w2 * static_cast<double>(e2);
  if (a > 0 && b > 0) {
    t_weighted =
        clamp_index(static_cast<Index>(std::sqrt(static_cast<double>(bs) * a / b)), 1, e1);
  }
  auto insert_seed = [](std::vector<Index>& seeds, Index n) {
    if (std::find(seeds.begin(), seeds.end(), n) == seeds.end()) seeds.push_back(n);
  };
  std::vector<Index> n1_seeds;
  insert_seed(n1_seeds, 1);
  insert_seed(n1_seeds, 2);
  for (Index t_seed : {t_sym, t_weighted}) {
    const Index n = ceil_div(e1, clamp_index(t_seed, 1, e1));
    for (Index delta = -2; delta <= 2; ++delta) {
      insert_seed(n1_seeds, clamp_index(n + delta, 1, e1));
    }
  }
  auto add_pair = [&](Index t1, Index t2) {
    t1 = ceil_div(e1, ceil_div(e1, clamp_index(t1, 1, e1)));
    t2 = ceil_div(e2, ceil_div(e2, clamp_index(t2, 1, e2)));
    if (t1 * t2 + c1 * t1 + c2 * t2 <= bs) pairs.emplace_back(t1, t2);
  };
  for (Index n1 : n1_seeds) {
    const Index t1 = ceil_div(e1, n1);
    if (t1 * 1 + c1 * t1 + c2 > bs) continue;
    add_pair(t1, (bs - c1 * t1) / (t1 + c2));
  }
  std::vector<Index> n2_seeds;
  for (Index n1 : n1_seeds) insert_seed(n2_seeds, clamp_index(n1, 1, e2));
  for (Index t_seed : {t_sym, bs / t_weighted}) {
    const Index n = ceil_div(e2, clamp_index(t_seed, 1, e2));
    for (Index delta = -2; delta <= 2; ++delta) {
      insert_seed(n2_seeds, clamp_index(n + delta, 1, e2));
    }
  }
  for (Index n2 : n2_seeds) {
    const Index t2 = ceil_div(e2, n2);
    if (1 * t2 + c1 + c2 * t2 > bs) continue;
    add_pair((bs - c2 * t2) / (t2 + c1), t2);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

// --- The probe generator: every probe carries its own trip counts, each
// tile is the smallest with its trip count, every probe fits, and the
// distinct pairs, as two_tile_candidates() collects them, are exactly the
// set the re-snapping sweep it replaced produced.
TEST(FlatPricing, ProbeGeneratorCollectsTheTwoTileSet) {
  Rng rng(2811);
  for (int trial = 0; trial < 20000; ++trial) {
    const Index cap = trial % 2 ? 400 : 16;
    const Index e1 = rng.uniform(1, cap), e2 = rng.uniform(1, cap);
    const double w1 = static_cast<double>(rng.uniform(0, 500));
    const double w2 = static_cast<double>(rng.uniform(0, 500));
    const Index c1 = rng.uniform(0, 3), c2 = rng.uniform(0, 3);
    const BufferSize bs = rng.chance(0.5) ? rng.uniform(3, 64) : rng.uniform(3, 4 * e1 * e2);
    std::size_t probes = 0;
    for_each_two_tile_probe(e1, e2, w1, w2, c1, c2, bs, [&](Index t1, Index n1, Index t2, Index n2) {
      ASSERT_EQ(n1, ceil_div(e1, t1));
      ASSERT_EQ(n2, ceil_div(e2, t2));
      ASSERT_EQ(t1, ceil_div(e1, n1));
      ASSERT_EQ(t2, ceil_div(e2, n2));
      ASSERT_LE(t1 * t2 + c1 * t1 + c2 * t2, bs);
      ++probes;
    });
    ASSERT_LE(probes, kMaxTwoTileProbes);
    ASSERT_EQ(two_tile_candidates(e1, e2, w1, w2, c1, c2, bs),
              reference_two_tile_pairs(e1, e2, w1, w2, c1, c2, bs))
        << "e=(" << e1 << "," << e2 << ") w=(" << w1 << "," << w2 << ") c=(" << c1 << ","
        << c2 << ") bs=" << bs;
  }
}

// --- Buffer classification predicts the winning regime (Sec. III-A4),
// with the paper's own caveats: the Single/Two shift point floats inside
// the "small" band, and Three-NRA needs slack above |Tensor_min| for the
// moving tiles.
class RegimePrediction : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegimePrediction, ClassMatchesRealizedRegime) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const Index m = rng.uniform(16, 400);
    const Index k = rng.uniform(16, 400);
    const Index l = rng.uniform(16, 400);
    TensorOp op = TensorOp::matmul("rand", m, k, l);
    const Index dmin = op.min_extent();
    const Index tmin = op.tensor_size(op.smallest_tensor());

    // Deep inside tiny: Single-NRA wins.
    if (dmin * dmin / 8 >= 3) {
      IntraOptResult r = optimize_intra(op, dmin * dmin / 8);
      EXPECT_EQ(r.nra, NraKind::kSingle) << op.to_string();
    }
    // Deep inside medium: Two-NRA wins.
    {
      BufferSize bs = (dmin * dmin / 2 + tmin) / 2 + dmin;  // mid-band
      if (bs > dmin * dmin / 2 && bs <= tmin) {
        IntraOptResult r = optimize_intra(op, bs);
        EXPECT_EQ(r.nra, NraKind::kTwo) << op.to_string() << " bs=" << bs;
      }
    }
    // Comfortably large: Three-NRA, ideal minimum.
    {
      IntraOptResult r = optimize_intra(op, 2 * tmin + 2 * dmin);
      EXPECT_EQ(r.nra, NraKind::kThree) << op.to_string();
      EXPECT_EQ(r.access.total, op.ideal_min_access());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegimePrediction,
                         ::testing::Values(21ull, 22ull, 23ull, 24ull, 25ull));

// --- Sec. IV-B: with BS = N^2 PE registers, untiling is optimal only when
// D_min < 2N — the insight that sizes FuseCU's adaptive arrays at 2N.
class RegisterLevel2N : public ::testing::TestWithParam<Index> {};

TEST_P(RegisterLevel2N, UntilingRespectsTheTwoNBound) {
  const Index array_n = GetParam();
  const BufferSize registers = array_n * array_n;
  // Guaranteed untiling below sqrt(2) * N (medium band at BS = N^2).
  {
    const Index dmin = static_cast<Index>(1.2 * static_cast<double>(array_n));
    TensorOp op = TensorOp::matmul("reg", 64 * array_n, dmin, 64 * array_n);
    IntraOptResult r = optimize_intra(op, registers);
    EXPECT_NE(r.nra, NraKind::kSingle) << "N=" << array_n;
  }
  // Never untiling above 2N (tiny band).
  {
    const Index dmin = 2 * array_n + array_n / 2;
    TensorOp op = TensorOp::matmul("reg", 64 * array_n, dmin, 64 * array_n);
    IntraOptResult r = optimize_intra(op, registers);
    EXPECT_EQ(r.nra, NraKind::kSingle) << "N=" << array_n;
    for (int d = 0; d < 3; ++d) EXPECT_FALSE(r.dataflow.untiled(op, d));
  }
}

INSTANTIATE_TEST_SUITE_P(ArraySizes, RegisterLevel2N,
                         ::testing::Values<Index>(32, 64, 128, 256));

TEST(PrincipleCandidates, ConstantSizedSet) {
  TensorOp op = TensorOp::matmul("mm", 1024, 768, 768);
  auto c = principle_candidates(op, 512 * 1024);
  EXPECT_FALSE(c.empty());
  EXPECT_LE(c.size(), 30u);  // one-shot: a constant handful, not a search
  for (const auto& cand : c) {
    EXPECT_LE(cand.dataflow.buffer_footprint(op), 512 * 1024);
  }
}

}  // namespace
}  // namespace fusecu
