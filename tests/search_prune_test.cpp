// Byte-identity of the pruned exhaustive oracle: ExhaustiveMode::kPruned
// must return the exact plan kFull returns — same dataflow (order + tiles,
// i.e. the same argmin under the exact iteration order and tie-breaks), same
// access breakdown — over a large adversarial workload population.  This is
// the soundness proof obligation of the floor early-exit and the
// footprint-monotone breaks (DESIGN.md "Pruning soundness").
//
// Both modes are also held against a naive reference written here: every
// loop order x every tile_candidates tuple, priced one Dataflow at a time
// through evaluate_access, with the oracle's tie-breaks.  That pins the
// oracle's flat pricing (nest_access on stack arrays) to the validating
// model it replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "check/gen.hpp"
#include "common/math_util.hpp"
#include "obs/metrics.hpp"
#include "principles/buffer_class.hpp"
#include "search/exhaustive.hpp"
#include "test_util.hpp"

namespace fusecu {
namespace {

std::string intra_sig(const std::optional<IntraSearchResult>& r) {
  if (!r) return "none";
  std::ostringstream os;
  os << "order=[";
  for (int d : r->dataflow.loop_order) os << d << ",";
  os << "] tile=[";
  for (Index t : r->dataflow.tile) os << t << ",";
  os << "] per_tensor=[";
  for (AccessCount a : r->access.per_tensor) os << a << ",";
  os << "] total=" << r->access.total << " fp=" << r->access.buffer_footprint;
  return os.str();
}

std::string fused_sig(const std::optional<FusedSearchResult>& r) {
  if (!r) return "none";
  std::ostringstream os;
  os << "op1=" << r->access.op1_external << " op2=" << r->access.op2_external
     << " total=" << r->access.total << " fp=" << r->access.buffer_footprint;
  if (r->phased) {
    os << " phased{" << r->phased->t_m << "," << r->phased->t_k << "," << r->phased->t_l
       << "," << r->phased->t_n << "," << (r->phased->l_outer ? "L" : "M") << "}";
  }
  if (r->resident) {
    os << " resident{[";
    for (Index t : r->resident->df1.tile) os << t << ",";
    os << "],[";
    for (Index t : r->resident->df2.tile) os << t << ",";
    os << "]}";
  }
  return os.str();
}

/// Naive intra reference: orders in lexicographic order (the oracle's), tile
/// tuples ascending, the first strictly smaller total wins, then the first
/// strictly smaller footprint.
std::optional<IntraSearchResult> reference_intra(const TensorOp& op, BufferSize bs) {
  std::optional<IntraSearchResult> best;
  std::vector<int> order = {0, 1, 2};
  do {
    for (Index t0 : tile_candidates(op.extent(0))) {
      for (Index t1 : tile_candidates(op.extent(1))) {
        for (Index t2 : tile_candidates(op.extent(2))) {
          const Dataflow df{order, {t0, t1, t2}};
          if (df.buffer_footprint(op) > bs) continue;
          const AccessBreakdown b = evaluate_access(op, df);
          if (!best || b.total < best->access.total ||
              (b.total == best->access.total &&
               b.buffer_footprint < best->access.buffer_footprint)) {
            best = IntraSearchResult{df, b};
          }
        }
      }
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

/// Naive resident side: minimize MA without \p exclude under a live
/// footprint of the other two tensors' tiles; first strictly smaller wins.
std::optional<Dataflow> reference_side(const TensorOp& op, BufferSize budget, int exclude,
                                       int other_a, int other_b) {
  std::optional<Dataflow> best;
  AccessCount best_ma = 0;
  std::vector<int> order = {0, 1, 2};
  do {
    for (Index t0 : tile_candidates(op.extent(0))) {
      for (Index t1 : tile_candidates(op.extent(1))) {
        for (Index t2 : tile_candidates(op.extent(2))) {
          const Dataflow df{order, {t0, t1, t2}};
          if (df.tensor_tile_size(op, other_a) + df.tensor_tile_size(op, other_b) > budget) {
            continue;
          }
          const AccessBreakdown b = evaluate_access(op, df);
          const AccessCount ma = b.total - b.per_tensor[static_cast<std::size_t>(exclude)];
          if (!best || ma < best_ma) {
            best = df;
            best_ma = ma;
          }
        }
      }
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return best;
}

/// Naive fused reference: the phased grid (M-outer first), then the
/// resident family, first strictly smaller total wins.
std::optional<FusedSearchResult> reference_fused(const FusedPair& pair, BufferSize bs) {
  std::optional<FusedSearchResult> best;
  for (bool l_outer : {false, true}) {
    for (Index t_m : tile_candidates(pair.m())) {
      for (Index t_k : tile_candidates(pair.k())) {
        for (Index t_l : tile_candidates(pair.l())) {
          for (Index t_n : tile_candidates(pair.n())) {
            const PhasedFusedDataflow df{t_m, t_k, t_l, t_n, l_outer};
            const FusedAccess a = evaluate_phased(pair, df);
            if (a.buffer_footprint > bs) continue;
            if (!best || a.total < best->access.total) {
              best = FusedSearchResult{df, std::nullopt, a};
            }
          }
        }
      }
    }
  }
  const BufferSize residual = bs - pair.intermediate_size();
  if (residual < 2) return best;
  const auto df1 =
      reference_side(pair.op1(), residual, mm::kTensorC, mm::kTensorA, mm::kTensorB);
  const auto df2 = reference_side(pair.op2(), residual, 0, 1, 2);
  if (df1 && df2) {
    const ResidentFusedDataflow rf{*df1, *df2};
    const FusedAccess a = evaluate_resident(pair, rf);
    if (a.buffer_footprint <= bs && (!best || a.total < best->access.total)) {
      best = FusedSearchResult{std::nullopt, rf, a};
    }
  }
  return best;
}

/// The workload's own buffer plus the four regime shift points: D_min^2/4,
/// D_min^2/2, |Tensor_min| (Sec. III-A4) and the untiled Three-NRA set.
std::vector<BufferSize> shift_point_buffers(const TensorOp& op, BufferSize own) {
  const ShiftRange shift = single_two_shift_range(op);
  const BufferSize smallest = op.tensor_size(op.smallest_tensor());
  std::vector<BufferSize> out = {own, shift.low, shift.high, smallest,
                                 static_cast<BufferSize>(op.ideal_min_access())};
  for (BufferSize& bs : out) bs = std::max<BufferSize>(bs, 1);
  return out;
}

TEST(SearchPrune, IntraMatchesNaiveReferenceInBothModes) {
  GenLimits limits;
  limits.max_extent = 24;
  Rng rng(20261017);
  constexpr std::array<std::array<int, 3>, 3> kPerms = {{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}}};
  for (int i = 0; i < 400; ++i) {
    const Workload w = gen_workload_of(WorkloadKind::kIntra, rng, limits);
    const auto& perm = kPerms[static_cast<std::size_t>(i) % kPerms.size()];
    const TensorOp op = test_util::permuted_matmul(w.intra_op(), perm);
    for (BufferSize bs : shift_point_buffers(op, w.bs)) {
      const std::string want = intra_sig(reference_intra(op, bs));
      ASSERT_EQ(intra_sig(exhaustive_intra(op, bs, ExhaustiveMode::kFull)), want)
          << "workload " << i << " bs=" << bs << ": " << op.to_string();
      ASSERT_EQ(intra_sig(exhaustive_intra(op, bs, ExhaustiveMode::kPruned)), want)
          << "workload " << i << " bs=" << bs << ": " << op.to_string();
    }
  }
}

TEST(SearchPrune, FusedMatchesNaiveReferenceInBothModes) {
  GenLimits limits;
  limits.max_extent = 24;
  Rng rng(20261018);
  int resident_wins = 0;
  for (int i = 0; i < 200; ++i) {
    const Workload w = gen_workload_of(WorkloadKind::kFused, rng, limits);
    const FusedPair pair = w.fused_pair();
    // The resident family needs room for the whole intermediate; half the
    // sweep guarantees it.
    const BufferSize bs =
        i % 2 == 0 ? w.bs : pair.intermediate_size() + 2 + static_cast<BufferSize>(w.bs % 64);
    const std::optional<FusedSearchResult> reference = reference_fused(pair, bs);
    if (reference && reference->resident) ++resident_wins;
    const std::string want = fused_sig(reference);
    ASSERT_EQ(fused_sig(exhaustive_fused(pair, bs, ExhaustiveMode::kFull)), want)
        << "workload " << i << " bs=" << bs << ": " << w.to_string();
    ASSERT_EQ(fused_sig(exhaustive_fused(pair, bs, ExhaustiveMode::kPruned)), want)
        << "workload " << i << " bs=" << bs << ": " << w.to_string();
  }
  EXPECT_GT(resident_wins, 0) << "the sweep never reached the resident family";
}

// 1000+ intra workloads from the harness's adversarial distribution (unit
// dims, primes, powers of two, boundary-biased buffer sizes).
TEST(SearchPrune, IntraByteIdenticalToFullOverThousandWorkloads) {
  GenLimits limits;
  limits.max_extent = 48;
  Rng rng(20260806);
  for (int i = 0; i < 1000; ++i) {
    const Workload w = gen_workload_of(WorkloadKind::kIntra, rng, limits);
    const TensorOp op = w.intra_op();
    const std::string full = intra_sig(exhaustive_intra(op, w.bs, ExhaustiveMode::kFull));
    const std::string pruned = intra_sig(exhaustive_intra(op, w.bs, ExhaustiveMode::kPruned));
    ASSERT_EQ(pruned, full) << "workload " << i << ": " << w.to_string();
  }
}

// Tiny exhaustively-enumerated grid: every (m, k, l) up to 6 at several
// buffer sizes, including infeasible ones (bs too small for any tiling).
TEST(SearchPrune, IntraByteIdenticalOnDenseSmallGrid) {
  for (Index m = 1; m <= 6; ++m) {
    for (Index k = 1; k <= 6; ++k) {
      for (Index l = 1; l <= 6; ++l) {
        const TensorOp op = TensorOp::matmul("g", m, k, l);
        for (BufferSize bs : {BufferSize(1), BufferSize(3), BufferSize(7), BufferSize(20),
                              BufferSize(200)}) {
          ASSERT_EQ(intra_sig(exhaustive_intra(op, bs, ExhaustiveMode::kPruned)),
                    intra_sig(exhaustive_intra(op, bs, ExhaustiveMode::kFull)))
              << m << "x" << k << "x" << l << " bs=" << bs;
        }
      }
    }
  }
}

TEST(SearchPrune, FusedByteIdenticalToFullOverThreeHundredWorkloads) {
  GenLimits limits;
  limits.max_extent = 48;
  Rng rng(998244353);
  for (int i = 0; i < 300; ++i) {
    const Workload w = gen_workload_of(WorkloadKind::kFused, rng, limits);
    const FusedPair pair = w.fused_pair();
    const std::string full = fused_sig(exhaustive_fused(pair, w.bs, ExhaustiveMode::kFull));
    const std::string pruned =
        fused_sig(exhaustive_fused(pair, w.bs, ExhaustiveMode::kPruned));
    ASSERT_EQ(pruned, full) << "workload " << i << ": " << w.to_string();
  }
}

// The pruning must actually skip work (and publish how much): on a
// power-of-two cube the floor is tight and most of the grid dies early.
TEST(SearchPrune, PrunedSkipsTuplesAndCountsThem) {
  Counter& skipped = MetricsRegistry::global().counter("search/exhaustive_pruned_evals");
  Counter& evaluated = MetricsRegistry::global().counter("search/exhaustive_intra/evaluations");
  const std::int64_t skipped_before = skipped.value();
  const std::int64_t evaluated_before = evaluated.value();

  // Buffer large enough for the untiled Three-NRA dataflow: the incumbent
  // reaches the ideal-minimum floor early and the rest of the grid dies to
  // the early-exit, not just to the footprint breaks.
  const TensorOp op = TensorOp::matmul("p2", 64, 64, 64);
  const BufferSize big = 3 * 64 * 64 + 64;
  const auto pruned = exhaustive_intra(op, big, ExhaustiveMode::kPruned);
  const std::int64_t skipped_by_pruned = skipped.value() - skipped_before;
  const std::int64_t evaluated_by_pruned = evaluated.value() - evaluated_before;

  const auto full = exhaustive_intra(op, big, ExhaustiveMode::kFull);
  const std::int64_t evaluated_by_full = evaluated.value() - evaluated_before - evaluated_by_pruned;

  ASSERT_TRUE(pruned.has_value());
  EXPECT_EQ(intra_sig(pruned), intra_sig(full));
  EXPECT_GT(skipped_by_pruned, 0);
  EXPECT_LT(evaluated_by_pruned, evaluated_by_full);
}

}  // namespace
}  // namespace fusecu
