// Golden digests of the two closed-form planners.  Each test folds the plan
// signature (rule string, regime tags, loop order, tiles, per-tensor and
// total MA, footprint) of a fixed seeded population into one FNV-1a hash and
// compares it with a constant recorded from the planners as they stood
// before any pruning.  An optimizer change that alters any plan or rule
// string fails here; an intended plan change must re-record the constant
// and say why.
//
// The population is drawn with splitmix64 and plain modular reduction, not
// std distributions, one draw per statement, so it is the same under every
// standard library and compiler.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "check/conformance.hpp"
#include "fusion/fusion_principles.hpp"
#include "obs/metrics.hpp"
#include "principles/principle_optimizer.hpp"
#include "test_util.hpp"
#include "workloads/transformer.hpp"

namespace fusecu {
namespace {

// Recorded from the exhaustive-pricing planners (every construction priced).
constexpr std::uint64_t kIntraDigest = 0xfae51653da9a10a6ull;
constexpr std::uint64_t kFusedDigest = 0x205615de42e8a207ull;
// Recorded from the planners as they stood before the closed forms priced
// each probe from its trip counts.
constexpr std::uint64_t kTable2IntraDigest = 0xf90edb2ad7267bb8ull;
constexpr std::uint64_t kTable2FusedDigest = 0x7c8b34ae503e3bd9ull;
// Recorded from the planners as they stood before the probe generator
// walked merged trip-count intervals.
constexpr std::int64_t kTable2IntraCandidates = 581474;
constexpr std::int64_t kTable2FusedCandidates = 368108;

constexpr std::array<std::array<int, 3>, 3> kPerms = {{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}}};

/// Canonical layout every fourth shape, otherwise one of three permuted
/// layouts with A stored transposed; buffers from the tiny 3..64 range up to
/// twice the ideal traffic.
TEST(ClosedFormGolden, IntraPlansMatchTheDigest) {
  test_util::SplitMix rng(20261018);
  test_util::Fnv1a digest;
  for (int i = 0; i < 40000; ++i) {
    const Index m = rng.extent(256), k = rng.extent(256), l = rng.extent(256);
    const TensorOp canonical = TensorOp::matmul("mm", m, k, l);
    const TensorOp op = i % 4 == 0 ? canonical
                                   : test_util::permuted_matmul(
                                         canonical, kPerms[static_cast<std::size_t>(i % 4 - 1)]);
    const Index dmin = op.min_extent();
    const Index tmin = op.tensor_size(op.smallest_tensor());
    BufferSize bs = 3;
    switch (rng.next() % 4) {
      case 0:
        bs = rng.uniform(3, 64);
        break;
      case 1:
        bs = rng.uniform(3, std::max<Index>(3, dmin * dmin));
        break;
      case 2:
        bs = rng.uniform(std::max<Index>(3, dmin * dmin / 4), std::max<Index>(3, 2 * tmin));
        break;
      default:
        bs = rng.uniform(3, std::max<Index>(3, 2 * op.ideal_min_access()));
    }
    digest.add(intra_plan_signature(optimize_intra(op, bs)));
  }
  EXPECT_EQ(digest.value(), kIntraDigest) << "got 0x" << std::hex << digest.value();
}

/// Buffers from too small to fuse at all up to the resident-intermediate band.
TEST(ClosedFormGolden, FusedPlansMatchTheDigest) {
  test_util::SplitMix rng(20261019);
  test_util::Fnv1a digest;
  for (int i = 0; i < 8000; ++i) {
    const Index m = rng.extent(160), k = rng.extent(160), l = rng.extent(160),
                n = rng.extent(160);
    const FusedPair pair = FusedPair::make(m, k, l, n);
    BufferSize bs = 3;
    switch (rng.next() % 4) {
      case 0:
        bs = rng.uniform(3, 64);
        break;
      case 1:
        bs = rng.uniform(3, 4096);
        break;
      case 2:
        bs = rng.uniform(3, 64 * 1024);
        break;
      default:
        bs = pair.intermediate_size() + rng.uniform(1, 8192);
    }
    digest.add(fused_plan_signature(optimize_fused_pair(pair, bs)));
  }
  EXPECT_EQ(digest.value(), kFusedDigest) << "got 0x" << std::hex << digest.value();
}

/// Table II scale: the five matmuls of a layer at extents up to 65536,
/// canonical every fourth plan and otherwise in a permuted layout, with a
/// buffer from each of the four classes; calls plan(op, bs) for each.
template <typename Plan>
void for_each_table2_intra(Plan&& plan) {
  test_util::SplitMix rng(20261020);
  for (int i = 0; i < 24000; ++i) {
    const LayerShapes layer = draw_table2_layer(rng);
    const auto& [m, k, l] = layer.matmuls[static_cast<std::size_t>(rng.next() % 5)];
    const TensorOp canonical = TensorOp::matmul("mm", m, k, l);
    const TensorOp op = i % 4 == 0 ? canonical
                                   : test_util::permuted_matmul(
                                         canonical, kPerms[static_cast<std::size_t>(i % 4 - 1)]);
    plan(op, draw_class_buffer(rng, m, k, l));
  }
}

/// Table II attention and FFN pairs, the buffer from the producer's four
/// classes or, one time in five, the resident-intermediate band; calls
/// plan(pair, bs) for each.
template <typename Plan>
void for_each_table2_fused(Plan&& plan) {
  test_util::SplitMix rng(20261021);
  for (int i = 0; i < 6000; ++i) {
    const LayerShapes layer = draw_table2_layer(rng);
    const auto& [m, k, l, n] = layer.pairs[static_cast<std::size_t>(rng.next() % 2)];
    const FusedPair pair = FusedPair::make(m, k, l, n);
    const BufferSize bs = rng.next() % 5 == 0
                              ? pair.intermediate_size() + rng.uniform(1, m * k + k * l)
                              : draw_class_buffer(rng, m, k, l);
    plan(pair, bs);
  }
}

TEST(ClosedFormGolden, Table2IntraPlansMatchTheDigest) {
  test_util::Fnv1a digest;
  for_each_table2_intra([&](const TensorOp& op, BufferSize bs) {
    digest.add(intra_plan_signature(optimize_intra(op, bs)));
  });
  EXPECT_EQ(digest.value(), kTable2IntraDigest) << "got 0x" << std::hex << digest.value();
}

TEST(ClosedFormGolden, Table2FusedPlansMatchTheDigest) {
  test_util::Fnv1a digest;
  for_each_table2_fused([&](const FusedPair& pair, BufferSize bs) {
    digest.add(fused_plan_signature(optimize_fused_pair(pair, bs)));
  });
  EXPECT_EQ(digest.value(), kTable2FusedDigest) << "got 0x" << std::hex << digest.value();
}

/// What the closed forms price, not only what they return: the total of
/// each optimizer's candidates counter over the two Table II populations.
/// A generator or pruning change that prices one construction more or less
/// fails here even when every plan stays the same.
TEST(ClosedFormGolden, Table2PricedCandidatesMatchTheTotals) {
  MetricsRegistry& metrics = MetricsRegistry::global();
  Counter& intra = metrics.counter("principles/optimize_intra/candidates");
  Counter& fused = metrics.counter("principles/optimize_fused_pair/candidates");
  const std::int64_t intra_before = intra.value();
  for_each_table2_intra([](const TensorOp& op, BufferSize bs) { (void)optimize_intra(op, bs); });
  const std::int64_t fused_before = fused.value();
  for_each_table2_fused(
      [](const FusedPair& pair, BufferSize bs) { (void)optimize_fused_pair(pair, bs); });
  EXPECT_EQ(intra.value() - intra_before, kTable2IntraCandidates);
  EXPECT_EQ(fused.value() - fused_before, kTable2FusedCandidates);
}

}  // namespace
}  // namespace fusecu
