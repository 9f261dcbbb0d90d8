// Golden digests of the chain planners: the closed-form chain planner under
// every policy and group limit, the whole-graph planner on transformer
// blocks, the platform planner on all five platforms and the DAT search
// planner.  Each test folds the plan of a fixed seeded population (groups,
// per-group and total MA, descriptions) into one FNV-1a hash and compares it
// with a constant recorded from the planners as they stood when each one
// carried its own partitioning DP.  A partitioner change that alters any
// split, cost or description fails here.
//
// The one intended difference since then: a solo step of the longer-group
// planner used to read "solo" and now carries its intra-op rule, like the
// pairwise planner's.  The longer-group and graph digests therefore leave
// solo descriptions out.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/dataflow_space.hpp"
#include "fusion/graph_planner.hpp"
#include "search/dat_optimizer.hpp"
#include "test_util.hpp"
#include "workloads/transformer.hpp"

namespace fusecu {
namespace {

using test_util::Fnv1a;
using test_util::SplitMix;

constexpr std::uint64_t kPairwiseDigest = 0x8728cdc5cacebfddull;
constexpr std::uint64_t kLongerGroupDigest = 0xbe2e59e5dcfe4ec1ull;
constexpr std::uint64_t kGraphDigest = 0xa99afa0ff4be0f5cull;
constexpr std::uint64_t kArchDigest = 0xee10bc4e91d3bd76ull;
constexpr std::uint64_t kDatDigest = 0x7b8b1e00180131full;

constexpr PlannerPolicy kPolicies[] = {PlannerPolicy::kPrinciple4, PlannerPolicy::kCostOnly,
                                       PlannerPolicy::kNoFusion};

/// A canonical matmul chain of 1..max_ops ops with extents in [1, max_extent].
OperatorGraph draw_chain(SplitMix& rng, int max_ops, Index max_extent) {
  const int ops = static_cast<int>(rng.uniform(1, max_ops));
  const Index m = rng.extent(max_extent);
  std::vector<Index> n;
  for (int i = 0; i <= ops; ++i) n.push_back(rng.extent(max_extent));
  return MatMulChainBuilder(m, n, "g").graph();
}

/// Buffers from too small to fuse up to the band where every intermediate
/// of the chain is resident at once.
BufferSize draw_buffer(SplitMix& rng, const OperatorGraph& g) {
  switch (rng.next() % 4) {
    case 0:
      return rng.uniform(3, 64);
    case 1:
      return rng.uniform(3, 4096);
    case 2:
      return rng.uniform(3, 20000);
    default: {
      Index intermediates = 0;
      for (int i = 0; i + 1 < g.num_ops(); ++i) intermediates += g.op(i).tensor_size(mm::kTensorC);
      return intermediates + rng.uniform(1, 4096);
    }
  }
}

std::string plan_signature(const FusionPlan& plan, bool solo_descriptions) {
  std::string line = "total=" + std::to_string(plan.total_access);
  for (const PlanStep& s : plan.steps) {
    line += " [";
    for (int i : s.op_indices) line += std::to_string(i) + ",";
    line += std::to_string(s.access);
    if (solo_descriptions || s.op_indices.size() > 1) line += ":" + s.description;
    line += "]";
  }
  return line;
}

TEST(ChainPlannerGolden, PairwisePlansMatchTheDigest) {
  SplitMix rng(20261020);
  Fnv1a digest;
  for (int i = 0; i < 2500; ++i) {
    const OperatorGraph g = draw_chain(rng, 5, 96);
    const BufferSize bs = draw_buffer(rng, g);
    for (PlannerPolicy policy : kPolicies) {
      digest.add(std::string(to_string(policy)) + " " +
                 plan_signature(plan_chain(g, bs, policy), /*solo_descriptions=*/true));
    }
  }
  EXPECT_EQ(digest.value(), kPairwiseDigest) << "got 0x" << std::hex << digest.value();
}

TEST(ChainPlannerGolden, LongerGroupPlansMatchTheDigest) {
  SplitMix rng(20261021);
  Fnv1a digest;
  for (int i = 0; i < 1500; ++i) {
    const OperatorGraph g = draw_chain(rng, 5, 96);
    const BufferSize bs = draw_buffer(rng, g);
    for (int max_group : {3, 4}) {
      for (PlannerPolicy policy : kPolicies) {
        digest.add(std::string(to_string(policy)) + " x" + std::to_string(max_group) + " " +
                   plan_signature(plan_chain(g, bs, policy, max_group),
                                  /*solo_descriptions=*/false));
      }
    }
  }
  EXPECT_EQ(digest.value(), kLongerGroupDigest) << "got 0x" << std::hex << digest.value();
}

TEST(ChainPlannerGolden, TransformerBlockPlansMatchTheDigest) {
  std::vector<ModelConfig> models = table2_models();
  models.push_back({"block", 12, 1024, 768});
  SplitMix rng(20261022);
  for (int i = 0; i < 8; ++i) {
    const int heads = static_cast<int>(rng.uniform(1, 16));
    const Index seq = rng.extent(512);
    models.push_back({"drawn", heads, seq, heads * rng.extent(96)});
  }
  Fnv1a digest;
  for (const ModelConfig& model : models) {
    const OperatorGraph block = transformer_block_graph(model);
    for (BufferSize bs : {BufferSize{512 * 1024 / 2}, rng.uniform(64, 1 << 20)}) {
      for (int max_group : {2, 3, 4}) {
        for (PlannerPolicy policy : kPolicies) {
          const GraphPlan p = plan_graph(block, bs, policy, max_group);
          std::string line = std::string(to_string(policy)) + " x" + std::to_string(max_group) +
                             " total=" + std::to_string(p.total_access) +
                             " ew=" + std::to_string(p.elementwise_access) + " absorbed=" +
                             std::to_string(p.absorbed_pointwise) + "/" +
                             std::to_string(p.absorbed_rowwise) +
                             " spilled=" + std::to_string(p.spilled_rowwise);
          for (const GraphPlanChain& c : p.chains) {
            line += " {";
            for (int op : c.op_indices) line += std::to_string(op) + ",";
            line += plan_signature(c.plan, /*solo_descriptions=*/false) + "}";
          }
          digest.add(line);
        }
      }
    }
  }
  EXPECT_EQ(digest.value(), kGraphDigest) << "got 0x" << std::hex << digest.value();
}

TEST(ChainPlannerGolden, PlatformPlansMatchTheDigest) {
  SplitMix rng(20261023);
  Fnv1a digest;
  for (int i = 0; i < 150; ++i) {
    const OperatorGraph g = draw_chain(rng, 4, 1024);
    const std::int64_t buffer_bytes = std::int64_t{1} << rng.uniform(10, 22);
    for (const ArchSpec& arch : all_platforms(buffer_bytes)) {
      std::string line = arch.name + " " + std::to_string(buffer_bytes);
      try {
        const ArchPlan plan = plan_chain_for_arch(g, arch);
        line += " total=" + std::to_string(plan.total_access) +
                " macs=" + std::to_string(plan.total_macs);
        for (const ArchPlanStep& s : plan.steps) {
          line += " [";
          for (int op : s.op_indices) line += std::to_string(op) + ",";
          line += std::to_string(s.fused) + ",";
          line += std::to_string(s.access) + ",";
          line += std::to_string(s.macs) + ",";
          line += std::to_string(s.spatial_rows) + "x";
          line += std::to_string(s.spatial_cols) + ":";
          line += s.rule;
          if (s.dataflow) {
            line += ":";
            line += s.dataflow->to_string(g.op(s.op_indices[0]));
          }
          line += "]";
        }
      } catch (const std::invalid_argument& e) {
        line += std::string(" throws ") + e.what();
      }
      digest.add(line);
    }
  }
  EXPECT_EQ(digest.value(), kArchDigest) << "got 0x" << std::hex << digest.value();
}

/// Small chains with exhaustive refinement on, so every group cost is the
/// exact searched optimum and the digest does not hang on the GA's draws.
TEST(ChainPlannerGolden, DatPlansMatchTheDigest) {
  DatParams params;
  params.ga.population = 8;
  params.ga.generations = 2;
  params.exhaustive_refinement = true;
  const DatOptimizer dat(params);
  SplitMix rng(20261024);
  Fnv1a digest;
  for (int i = 0; i < 24; ++i) {
    const OperatorGraph g = draw_chain(rng, 3, 12);
    const BufferSize bs = rng.uniform(3, 512);
    try {
      digest.add(plan_signature(dat.plan_chain(g, bs), /*solo_descriptions=*/true));
    } catch (const std::invalid_argument& e) {
      digest.add(std::string("throws ") + e.what());
    }
  }
  EXPECT_EQ(digest.value(), kDatDigest) << "got 0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace fusecu
