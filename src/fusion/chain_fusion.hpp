#pragma once

#include "fusion/fusion_planner.hpp"

/// \file chain_fusion.hpp
/// Multi-operator resident fusion — the generalization of Fig. 4(e) to
/// chains of k >= 2 matmuls.
///
/// When every intermediate X_1 .. X_{k-1} of a chain
///   X_1 = X_0 W_1,  X_2 = X_1 W_2,  ...,  X_k = X_{k-1} W_k
/// fits in the buffer simultaneously with the streaming tiles, the whole
/// group reaches its fused communication lower bound: the external tensors
/// (X_0, the weights, X_k) are each accessed exactly once,
///
///   MA = |X_0| + sum_i |W_i| + |X_k|.
///
/// The construction keeps each intermediate fully resident and streams the
/// corresponding weight with unit tiles; the per-op dataflow realizing it
/// is returned for inspection/execution.  plan_chain() with a group limit
/// of three or more prices its longer groups this way, choosing between solo
/// ops, fused pairs (phased or resident, Sec. III-B) and resident chains.

namespace fusecu {

struct ResidentChainResult {
  AccessCount total_access = 0;        ///< externals only — the fused lower bound
  Index buffer_footprint = 0;          ///< resident intermediates + peak tiles
  std::vector<Dataflow> dataflows;     ///< per op, realizing the bound
};

/// Fuse ops [first, first+len) of a linear chain with all intermediates
/// resident.  nullopt when the intermediates + streaming tiles overflow
/// \p bs.  Requires len >= 2 and canonically oriented adjacency (each op's
/// output is the next op's first input).
std::optional<ResidentChainResult> optimize_resident_chain(const OperatorGraph& graph, int first,
                                                           int len, BufferSize bs);

}  // namespace fusecu
