#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "common/rng.hpp"
#include "fusion/fusion_principles.hpp"
#include "search/exhaustive.hpp"

namespace fusecu {
namespace {

// Attention-shaped pair at a per-head scale: S = Q K^T (M=seq, K=head_dim,
// L=seq) fused with O = S V (N=head_dim).
FusedPair attention_pair(Index seq, Index head_dim) {
  return FusedPair::make(seq, head_dim, seq, head_dim);
}

TEST(FusionPrinciples, SameRegimeDetection) {
  FusedPair p = attention_pair(256, 64);
  // Tiny buffer: both ops Single-NRA.
  EXPECT_TRUE(same_nra_regime(p, 512));
  // Huge buffer: both Three-NRA.
  EXPECT_TRUE(same_nra_regime(p, 4 * 1024 * 1024));
}

TEST(FusionPrinciples, DifferentRegimeForAsymmetricPair) {
  // op1 is a huge MM (stays Single-NRA), op2 tiny (instantly Three-NRA).
  FusedPair p = FusedPair::make(64, 4096, 64, 8);
  const BufferSize bs = 3000;
  IntraOptResult r1 = optimize_intra(p.op1(), bs);
  IntraOptResult r2 = optimize_intra(p.op2(), bs);
  ASSERT_NE(r1.nra, r2.nra);
  EXPECT_FALSE(same_nra_regime(p, bs));
}

TEST(FusionPrinciples, TileFusionWinsInTinyBuffers) {
  FusedPair p = attention_pair(1024, 128);
  const BufferSize bs = 16 * 1024;  // tiny for both ops (D_min = 128... )
  auto fused = optimize_fused_pair(p, bs);
  ASSERT_TRUE(fused.has_value());
  EXPECT_LE(fused->access.buffer_footprint, bs);
  // Fusion saves the 1024x1024 intermediate round trip.
  FusionDecision d = decide_fusion(p, bs);
  EXPECT_TRUE(d.fusable);
  EXPECT_TRUE(d.profitable) << "fused " << d.fused_ma << " vs unfused " << d.unfused_ma;
}

TEST(FusionPrinciples, ResidentFusionAppearsWithLargeBuffers) {
  FusedPair p = attention_pair(128, 64);
  const BufferSize bs = 64 * 1024;  // > |C| = 16K with plenty of slack
  auto fused = optimize_fused_pair(p, bs);
  ASSERT_TRUE(fused.has_value());
  // With everything resident the fused MA reaches the fused ideal bound.
  EXPECT_EQ(fused->access.total, p.ideal_min_access());
}

TEST(FusionPrinciples, UnfusedReferenceMatchesIntraOptima) {
  FusedPair p = attention_pair(256, 64);
  const BufferSize bs = 32 * 1024;
  EXPECT_EQ(unfused_pair_access(p, bs),
            optimize_intra(p.op1(), bs).access.total + optimize_intra(p.op2(), bs).access.total);
}

TEST(FusionPrinciples, NoCandidateWhenBufferAbsurdlySmall) {
  FusedPair p = attention_pair(256, 64);
  EXPECT_FALSE(optimize_fused_pair(p, 4).has_value());
  EXPECT_FALSE(optimize_fused_pair(p, 0).has_value());
  EXPECT_FALSE(optimize_fused_pair(p, -100).has_value());
  FusionDecision d = decide_fusion(p, 4);
  EXPECT_FALSE(d.fusable);
  EXPECT_FALSE(d.profitable);
}

// --- The fused optimality property: the principled fused construction
// matches or beats exhaustive search over the fused space.
struct FusedCase {
  Index m, k, l, n;
  BufferSize bs;
};

class FusedOptimality : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedOptimality, MatchesOrBeatsExhaustiveFused) {
  const auto& c = GetParam();
  FusedPair p = FusedPair::make(c.m, c.k, c.l, c.n);
  auto principled = optimize_fused_pair(p, c.bs);
  auto searched = exhaustive_fused(p, c.bs);
  ASSERT_EQ(principled.has_value(), searched.has_value());
  if (principled) {
    EXPECT_LE(principled->access.total, searched->access.total)
        << "pair (" << c.m << "," << c.k << "," << c.l << "," << c.n << ") bs=" << c.bs
        << " rule " << principled->chosen.rule;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedOptimality,
    ::testing::Values(FusedCase{256, 64, 256, 64, 2 * 1024},    // attention, tiny
                      FusedCase{256, 64, 256, 64, 16 * 1024},   // attention, medium
                      FusedCase{256, 64, 256, 64, 128 * 1024},  // attention, resident
                      FusedCase{128, 128, 128, 128, 4 * 1024},  // square
                      FusedCase{512, 64, 64, 512, 8 * 1024},    // skinny intermediate
                      FusedCase{64, 256, 64, 256, 8 * 1024},    // wide weights
                      FusedCase{100, 50, 25, 200, 3 * 1024},    // non powers of two
                      FusedCase{16, 16, 16, 16, 64},            // barely fits
                      FusedCase{1024, 64, 1024, 64, 64 * 1024}));

class FusedOptimalityRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FusedOptimalityRandom, MatchesOrBeatsExhaustiveFused) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 4; ++trial) {
    FusedPair p = FusedPair::make(rng.uniform(2, 200), rng.uniform(2, 200), rng.uniform(2, 200),
                                  rng.uniform(2, 200));
    const BufferSize bs = rng.uniform(16, 32 * 1024);
    auto principled = optimize_fused_pair(p, bs);
    auto searched = exhaustive_fused(p, bs);
    if (searched && !principled) {
      FAIL() << "search found a fused dataflow the principles missed: bs=" << bs;
    }
    if (principled && searched) {
      EXPECT_LE(principled->access.total, searched->access.total)
          << "pair (" << p.m() << "," << p.k() << "," << p.l() << "," << p.n() << ") bs=" << bs
          << " rule " << principled->chosen.rule;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedOptimalityRandom,
                         ::testing::Values(201ull, 202ull, 203ull, 204ull, 205ull, 206ull,
                                           207ull, 208ull));

/// A buffer for \p p from one of four bands: tiny (3..64), up to 4K, up to
/// 64K, or the resident-intermediate band just above |C|.
BufferSize mixed_fused_buffer(Rng& rng, const FusedPair& p) {
  switch (rng.uniform(0, 3)) {
    case 0:
      return rng.uniform(3, 64);
    case 1:
      return rng.uniform(3, 4096);
    case 2:
      return rng.uniform(3, 64 * 1024);
    default:
      return p.intermediate_size() + rng.uniform(1, 8192);
  }
}

// --- optimize_fused_pair is exactly the argmin of the public candidate
// set: smallest total among those that fit, first on ties, with the
// regime tags of the two ops' intra-operator optima.  The optimizer skips
// corner sweeps by their floors, so this is also the proof that skipping
// never changes a plan or a rule string.
TEST(FusionPrinciples, OptimizeFusedIsTheArgminOfTheCandidates) {
  Rng rng(303);
  for (int trial = 0; trial < 6000; ++trial) {
    const Index cap = trial % 2 ? 300 : 40;
    const Index m = rng.uniform(1, cap), k = rng.uniform(1, cap), l = rng.uniform(1, cap),
                n = rng.uniform(1, cap);
    FusedPair p = FusedPair::make(m, k, l, n);
    const BufferSize bs = mixed_fused_buffer(rng, p);
    const FusedCandidate* best = nullptr;
    FusedAccess best_access;
    const std::vector<FusedCandidate> candidates = fused_principle_candidates(p, bs);
    for (const FusedCandidate& c : candidates) {
      FusedAccess a = c.phased ? evaluate_phased(p, *c.phased) : evaluate_resident(p, *c.resident);
      if (a.buffer_footprint > bs) continue;
      if (!best || a.total < best_access.total) {
        best = &c;
        best_access = a;
      }
    }
    auto r = optimize_fused_pair(p, bs);
    ASSERT_EQ(r.has_value(), best != nullptr) << "bs=" << bs;
    if (!r) continue;
    ASSERT_EQ(r->access.total, best_access.total);
    ASSERT_EQ(r->access.buffer_footprint, best_access.buffer_footprint);
    ASSERT_EQ(r->chosen.rule, best->rule);
    ASSERT_EQ(r->chosen.phased.has_value(), best->phased.has_value());
    if (r->chosen.phased) {
      ASSERT_EQ(r->chosen.phased->to_string(), best->phased->to_string());
    } else {
      ASSERT_EQ(r->chosen.resident->df1.to_string(p.op1()),
                best->resident->df1.to_string(p.op1()));
      ASSERT_EQ(r->chosen.resident->df2.to_string(p.op2()),
                best->resident->df2.to_string(p.op2()));
    }
    ASSERT_EQ(r->regime1, optimize_intra(p.op1(), bs).nra);
    ASSERT_EQ(r->regime2, optimize_intra(p.op2(), bs).nra);
  }
}

// --- The corner floors optimize_fused_pair() prunes by are admissible:
// every phased candidate prices at or above its (T_K, T_N) corner's floor,
// after the optimizer's 1e-9 shading.  Tiny buffers, unit extents and the
// deep-tiny attention corner (EXPERIMENTS.md deviation 1) included.
TEST(FusedFloors, EveryPhasedCandidatePricesAtOrAboveItsCornerFloor) {
  Rng rng(404);
  int checked = 0;
  auto check = [&](const FusedPair& p, BufferSize bs) {
    for (const FusedCandidate& c : fused_principle_candidates(p, bs)) {
      if (!c.phased) continue;
      const double floor = detail::phased_corner_floor(p, bs, c.phased->t_k, c.phased->t_n);
      const AccessCount total = evaluate_phased(p, *c.phased).total;
      ASSERT_FALSE(floor_exceeds(floor, total))
          << "pair (" << p.m() << "," << p.k() << "," << p.l() << "," << p.n() << ") bs=" << bs
          << " " << c.phased->to_string() << " prices " << total << " below its floor " << floor;
      ++checked;
    }
  };
  for (int trial = 0; trial < 4000; ++trial) {
    const Index cap = trial % 2 ? 200 : 24;
    const Index m = rng.uniform(1, cap), k = rng.uniform(1, cap), l = rng.uniform(1, cap),
                n = rng.uniform(1, cap);
    const FusedPair p = FusedPair::make(m, k, l, n);
    check(p, mixed_fused_buffer(rng, p));
  }
  // Deep tiny: attention-shaped pairs at buffers well below D_min^2 / 4.
  for (Index seq : {64, 256, 512}) {
    for (Index head : {16, 64}) {
      for (BufferSize bs : {BufferSize{12}, head * head / 16, head * head / 4}) {
        check(attention_pair(seq, head), std::max<BufferSize>(3, bs));
      }
    }
  }
  EXPECT_GT(checked, 200000);
}

// --- optimize_fused_pair() prices each phased probe from its trip counts,
// not with evaluate_phased(): that flat price must equal evaluate_phased()
// on every phased construction fused_principle_candidates() emits, and on
// every tiling of small pairs (T_K and T_N anywhere, not only at corners).
TEST(FlatPricing, PhasedProbePriceMatchesTheAccessModel) {
  Rng rng(2812);
  int checked = 0;
  auto check = [&](const FusedPair& p, const PhasedFusedDataflow& df) {
    const std::array<AccessCount, 2> flat = detail::phased_probe_totals(p, df);
    ASSERT_EQ(flat[df.l_outer ? 1 : 0], evaluate_phased(p, df).total)
        << "pair (" << p.m() << "," << p.k() << "," << p.l() << "," << p.n() << ") "
        << df.to_string();
    ++checked;
  };
  for (int trial = 0; trial < 4000; ++trial) {
    const Index cap = trial % 2 ? 200 : 8;
    const Index m = rng.uniform(1, cap), k = rng.uniform(1, cap), l = rng.uniform(1, cap),
                n = rng.uniform(1, cap);
    const FusedPair p = FusedPair::make(m, k, l, n);
    const BufferSize bs = rng.chance(0.25) ? rng.uniform(3, 64) : mixed_fused_buffer(rng, p);
    for (const FusedCandidate& c : fused_principle_candidates(p, bs)) {
      if (c.phased) check(p, *c.phased);
    }
  }
  for (Index m = 1; m <= 3; ++m) {
    for (Index k = 1; k <= 3; ++k) {
      for (Index l = 1; l <= 3; ++l) {
        for (Index n = 1; n <= 3; ++n) {
          const FusedPair p = FusedPair::make(m, k, l, n);
          PhasedFusedDataflow df;
          for (df.t_m = 1; df.t_m <= m; ++df.t_m) {
            for (df.t_k = 1; df.t_k <= k; ++df.t_k) {
              for (df.t_l = 1; df.t_l <= l; ++df.t_l) {
                for (df.t_n = 1; df.t_n <= n; ++df.t_n) {
                  for (bool l_outer : {false, true}) {
                    df.l_outer = l_outer;
                    check(p, df);
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 200000);
}

TEST(FusedFloors, CornerFloorRejectsANonCorner) {
  const FusedPair p = FusedPair::make(8, 8, 8, 8);
  EXPECT_THROW(detail::phased_corner_floor(p, 256, 2, 1), std::invalid_argument);
}

// --- decide_fusion takes Principle 4's predicate from the two intra plans
// it already computes; it must agree with same_nra_regime().
TEST(FusionPrinciples, DecisionPredicateMatchesSameRegime) {
  Rng rng(505);
  for (int trial = 0; trial < 500; ++trial) {
    const Index m = rng.uniform(1, 200), k = rng.uniform(1, 200), l = rng.uniform(1, 200),
                n = rng.uniform(1, 200);
    const FusedPair p = FusedPair::make(m, k, l, n);
    const BufferSize bs = mixed_fused_buffer(rng, p);
    const FusionDecision d = decide_fusion(p, bs);
    ASSERT_EQ(d.principle4_predicts, same_nra_regime(p, bs)) << "bs=" << bs;
    ASSERT_EQ(d.unfused_ma, unfused_pair_access(p, bs)) << "bs=" << bs;
  }
}

// --- Principle 4: same-regime fusion never loses from D_min^2/4 upward and
// wins strictly once the buffer clears the Single/Two shift band.
//
// Reproduction note (recorded in EXPERIMENTS.md): for attention-shaped
// pairs, where the intermediate S = QK^T is far larger than the four
// external tensors, fusion in the *deep tiny* regime (BS well below
// D_min^2/4) can be strictly unprofitable — the unfused optimum keeps the
// small input stationary and pays the intermediate only a few times, while
// fusion forces the huge intermediate stationary.  The paper's evaluation
// (32 KB+ buffers) never enters that corner.
class Principle4Sweep : public ::testing::TestWithParam<BufferSize> {};

TEST_P(Principle4Sweep, SameRegimePairsNeverLose) {
  const BufferSize bs = GetParam();
  FusedPair p = attention_pair(512, 64);  // D_min = 64, D_min^2/4 = 1024
  FusionDecision d = decide_fusion(p, bs);
  ASSERT_TRUE(d.principle4_predicts);  // square pair: regimes always match
  ASSERT_TRUE(d.fusable);
  EXPECT_LE(d.fused_ma, d.unfused_ma) << "bs=" << bs;
  if (bs >= 4 * 1024) {  // past the shift band: strictly profitable
    EXPECT_LT(d.fused_ma, d.unfused_ma) << "bs=" << bs;
  }
}

INSTANTIATE_TEST_SUITE_P(BufferSweep, Principle4Sweep,
                         ::testing::Values<BufferSize>(1024, 4 * 1024, 16 * 1024, 64 * 1024,
                                                       256 * 1024, 1024 * 1024));

TEST(FusionPrinciples, DeepTinyRegimeCanBeUnprofitable) {
  // The documented limitation above, pinned: at BS = D_min^2/16 the fused
  // optimum is strictly worse, and a cost-aware planner must not fuse.
  FusedPair p = attention_pair(512, 64);
  FusionDecision d = decide_fusion(p, 256);
  ASSERT_TRUE(d.fusable);
  EXPECT_GT(d.fused_ma, d.unfused_ma);
  EXPECT_FALSE(d.profitable);
}

}  // namespace
}  // namespace fusecu
