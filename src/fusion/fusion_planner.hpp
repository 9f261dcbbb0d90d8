#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fusion/fusion_principles.hpp"
#include "tensor/op_graph.hpp"

/// \file fusion_planner.hpp
/// Operator-chain fusion planning.
///
/// The paper fuses pairs of adjacent tensor operators (Fig. 4/5 are all
/// pairwise; "for the fusion of more than two operators, we can apply
/// Principle 4 to each pair of connected operators").  Splitting a chain
/// into solo ops and fused groups is one decision, made by one dynamic
/// program over the chain (partition_chain) that minimizes total memory
/// access.  The closed-form planner (plan_chain), the platform planner
/// (plan_chain_for_arch) and the DAT search planner each price the groups
/// their own way and share that partitioner.

namespace fusecu {

/// How the planner decides whether a pair is fused.
enum class PlannerPolicy {
  kPrinciple4,  ///< fuse exactly when both ops share an NRA regime (one-shot)
  kCostOnly,    ///< fuse when the evaluated fused MA beats unfused (oracle)
  kNoFusion,    ///< never fuse (intra-op optimization only)
};

/// One contiguous group of a chain partition: ops [first, first + len).
struct ChainGroup {
  int first = 0;
  int len = 1;
  AccessCount access = 0;  ///< the group's cost as priced

  std::vector<int> op_indices() const;  ///< first, ..., first + len - 1
};

/// MA of ops [first, first + len) as one group; nullopt when the group is
/// illegal.  A singleton (len == 1) must always be legal.
using GroupCost = std::function<std::optional<AccessCount>(int first, int len)>;

/// The cheapest split of a chain of \p n ops into contiguous groups of at
/// most \p max_group ops.  \p cost is called once for every candidate
/// group, in increasing order of its last op and then of its length.  On a
/// tie the shortest group ending at an op wins: a solo op unless fusing is
/// strictly cheaper.
std::vector<ChainGroup> partition_chain(int n, int max_group, const GroupCost& cost);

/// One scheduled group: a single op, a fused adjacent pair or a resident
/// chain of three or more ops.
struct PlanStep {
  std::vector<int> op_indices;  ///< consecutive chain positions
  AccessCount access = 0;       ///< MA of this group at the planning buffer
  std::string description;     ///< chosen dataflow rule, for reports
};

struct FusionPlan {
  std::vector<PlanStep> steps;
  AccessCount total_access = 0;

  int fused_pair_count() const;
};

/// Plan a linear chain (validated via OperatorGraph::is_linear_chain) in
/// groups of up to \p max_group ops.  Solo ops cost optimize_intra and carry
/// its rule; pairs cost optimize_fused_pair; groups of three or more cost
/// optimize_resident_chain (chain_fusion.hpp).  Under kPrinciple4 a group
/// is legal only when every adjacent pair in it shares an NRA regime;
/// kNoFusion plans every op solo.
FusionPlan plan_chain(const OperatorGraph& graph, BufferSize bs, PlannerPolicy policy,
                      int max_group = 2);

/// Non-throwing FusedPair extraction for adjacent chain ops.
std::optional<FusedPair> try_make_fused_pair(const TensorOp& producer, const TensorOp& consumer);

const char* to_string(PlannerPolicy policy);

}  // namespace fusecu
