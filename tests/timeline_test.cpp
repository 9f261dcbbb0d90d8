#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.hpp"
#include "fusion/fusion_principles.hpp"
#include "principles/principle_optimizer.hpp"
#include "sim/timeline.hpp"
#include "obs/trace.hpp"

namespace fusecu {
namespace {

TEST(Timeline, TrafficMatchesAccessModel) {
  TensorOp op = TensorOp::matmul("tl", 256, 128, 256);
  Dataflow df = make_dataflow(op, {"M", "L", "K"}, {{"M", 64}, {"L", 64}, {"K", 32}});
  TimelineResult r = simulate_timeline(op, df, make_fusecu());
  EXPECT_EQ(r.traffic, evaluate_access(op, df).total);
  // Iterations = product of trip counts.
  EXPECT_EQ(r.iterations, (256 / 64) * (256 / 64) * (128 / 32));
}

TEST(Timeline, MakespanBoundedByRooflineAndSerialization) {
  TensorOp op = TensorOp::matmul("tl", 512, 256, 512);
  for (Index t : {Index{32}, Index{64}, Index{128}}) {
    Dataflow df = make_dataflow(op, {"M", "L", "K"}, {{"M", t}, {"L", t}, {"K", 16}});
    TimelineResult r = simulate_timeline(op, df, make_fusecu());
    EXPECT_GE(r.cycles, r.roofline()) << "t=" << t;
    EXPECT_LE(r.cycles, r.serialized() + 1) << "t=" << t;
  }
}

TEST(Timeline, DoubleBufferingRecoversMostOfTheOverlap) {
  // A balanced schedule should land near the roofline, far below the
  // serialized bound.
  TensorOp op = TensorOp::matmul("tl", 1024, 512, 1024);
  IntraOptResult opt = optimize_intra(op, 128 * 1024);
  TimelineResult r = simulate_timeline(op, opt.dataflow, make_fusecu());
  EXPECT_LE(static_cast<double>(r.cycles), 1.25 * static_cast<double>(r.roofline()));
}

TEST(Timeline, MemoryBoundScheduleTracksDmaBusy) {
  // Tiny tiles -> terrible reuse -> the DMA dominates the makespan.
  TensorOp op = TensorOp::matmul("tl", 256, 256, 256);
  Dataflow df = make_dataflow(op, {"M", "L", "K"}, {{"M", 4}, {"L", 4}, {"K", 4}});
  TimelineResult r = simulate_timeline(op, df, make_tpu_v4i());
  EXPECT_GT(r.dma_busy, r.compute_busy);
  EXPECT_LE(static_cast<double>(r.cycles), 1.05 * static_cast<double>(r.dma_busy) + 16);
}

TEST(Timeline, LowerUtilizationStretchesCompute) {
  TensorOp op = TensorOp::matmul("tl", 256, 256, 256);
  Dataflow df = make_dataflow(op, {"M", "L", "K"}, {{"M", 128}, {"L", 128}, {"K", 64}});
  TimelineResult full = simulate_timeline(op, df, make_fusecu(), 1.0);
  TimelineResult half = simulate_timeline(op, df, make_fusecu(), 0.5);
  EXPECT_EQ(half.compute_busy, 2 * full.compute_busy);
  EXPECT_THROW(simulate_timeline(op, df, make_fusecu(), 0.0), std::invalid_argument);
  EXPECT_THROW(simulate_timeline(op, df, make_fusecu(), 1.5), std::invalid_argument);
}

TEST(FusedTimeline, TrafficMatchesFusedModel) {
  FusedPair pair = FusedPair::make(256, 64, 256, 64);
  PhasedFusedDataflow df{64, 16, 64, 16, false};
  TimelineResult r = simulate_fused_timeline(pair, df, make_fusecu());
  FusedAccess predicted = evaluate_phased(pair, df);
  EXPECT_EQ(r.traffic, predicted.total);
  EXPECT_GE(r.cycles, r.roofline());
  EXPECT_LE(r.cycles, r.serialized() + 1);
}

TEST(FusedTimeline, FusionBeatsUnfusedBackToBack) {
  // Execute the attention pair fused vs as two back-to-back schedules; the
  // fused timeline must win on makespan thanks to the removed intermediate
  // traffic.
  const BufferSize bs = make_fusecu().buffer_elements();
  FusedPair pair = FusedPair::make(1024, 64, 1024, 64);
  auto fused = optimize_fused_pair(pair, bs);
  ASSERT_TRUE(fused && fused->chosen.phased);
  TimelineResult fused_tl = simulate_fused_timeline(pair, *fused->chosen.phased, make_fusecu());

  IntraOptResult op1 = optimize_intra(pair.op1(), bs);
  IntraOptResult op2 = optimize_intra(pair.op2(), bs);
  TimelineResult u1 = simulate_timeline(pair.op1(), op1.dataflow, make_fusecu());
  TimelineResult u2 = simulate_timeline(pair.op2(), op2.dataflow, make_fusecu());
  EXPECT_LT(fused_tl.cycles, u1.cycles + u2.cycles);
}

/// Final value of each counter track (samples are cumulative except
/// occupancy, which is instantaneous).
std::map<std::string, double> final_counter_values(const TraceRecorder& rec) {
  std::map<std::string, double> last;
  for (const CounterSample& s : rec.counter_samples()) last[s.track] = s.value;
  return last;
}

TEST(Timeline, CounterTracksMatchTimelineResult) {
  TensorOp op = TensorOp::matmul("tl", 256, 128, 256);
  Dataflow df = make_dataflow(op, {"M", "L", "K"}, {{"M", 64}, {"L", 64}, {"K", 32}});
  TraceRecorder rec;
  TimelineResult r = simulate_timeline(op, df, make_fusecu(), 1.0, &rec);

  // One sample per track per iteration.
  EXPECT_EQ(static_cast<Index>(rec.counter_samples().size()), 4 * r.iterations);
  std::map<std::string, double> last = final_counter_values(rec);
  ASSERT_GE(last.size(), 3u);  // >= 3 counter tracks for Perfetto
  // The cumulative tracks retire at exactly the TimelineResult totals
  // (which are the ceil of the running doubles).
  EXPECT_EQ(static_cast<CycleCount>(std::ceil(last.at("dma_busy_cycles"))), r.dma_busy);
  EXPECT_EQ(static_cast<CycleCount>(std::ceil(last.at("compute_busy_cycles"))), r.compute_busy);
  EXPECT_DOUBLE_EQ(last.at("traffic_elements"), static_cast<double>(r.traffic));
  // Occupancy stays within the schedule's tile footprint.
  const double footprint = static_cast<double>(df.buffer_footprint(op));
  for (const CounterSample& s : rec.counter_samples()) {
    if (s.track != "buffer_occupancy_elements") continue;
    EXPECT_GT(s.value, 0.0);
    EXPECT_LE(s.value, footprint);
  }
  // Cumulative tracks never decrease.
  std::map<std::string, double> prev;
  for (const CounterSample& s : rec.counter_samples()) {
    if (s.track == "buffer_occupancy_elements") continue;
    auto [it, inserted] = prev.try_emplace(s.track, s.value);
    if (!inserted) {
      EXPECT_GE(s.value, it->second) << s.track;
      it->second = s.value;
    }
  }
}

TEST(FusedTimeline, CounterTracksMatchTimelineResult) {
  FusedPair pair = FusedPair::make(256, 64, 256, 64);
  PhasedFusedDataflow df{64, 16, 64, 16, false};
  TraceRecorder rec;
  TimelineResult r = simulate_fused_timeline(pair, df, make_fusecu(), 1.0, &rec);
  std::map<std::string, double> last = final_counter_values(rec);
  EXPECT_EQ(static_cast<CycleCount>(std::ceil(last.at("dma_busy_cycles"))), r.dma_busy);
  EXPECT_EQ(static_cast<CycleCount>(std::ceil(last.at("compute_busy_cycles"))), r.compute_busy);
  EXPECT_DOUBLE_EQ(last.at("traffic_elements"), static_cast<double>(r.traffic));
}

class TimelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineFuzz, InvariantsHoldOnRandomSchedules) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const Index m = rng.uniform(1, 64), k = rng.uniform(1, 64), l = rng.uniform(1, 64);
    TensorOp op = TensorOp::matmul("fuzz", m, k, l);
    static const std::vector<std::vector<int>> orders = {
        {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
    Dataflow df;
    df.loop_order = orders[rng.pick(orders.size())];
    df.tile = {rng.uniform(1, m), rng.uniform(1, k), rng.uniform(1, l)};
    TimelineResult r = simulate_timeline(op, df, make_fusecu());
    EXPECT_EQ(r.traffic, evaluate_access(op, df).total) << df.to_string(op);
    EXPECT_GE(r.cycles, r.roofline());
    EXPECT_LE(r.cycles, r.serialized() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineFuzz, ::testing::Values(301ull, 302ull, 303ull, 304ull));

}  // namespace
}  // namespace fusecu
