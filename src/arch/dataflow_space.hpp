#pragma once

#include <optional>
#include <string>
#include <vector>

#include "arch/arch_spec.hpp"
#include "fusion/fusion_planner.hpp"

/// \file dataflow_space.hpp
/// Space-constrained dataflow optimization: "all designs undergo our
/// optimization process to select the best dataflow within their supported
/// spaces" (Sec. V-A).
///
/// The platform attributes restrict the optimizer as follows:
///
/// * **Low tiling flexibility** (TPUv4i, Gemmini): the PE-resident tensor's
///   tile is locked to the array shape (128x128, clamped by the extents) and
///   the schedule is the fixed stationary order with a streaming third
///   dimension.  The platform cannot stage larger stationary tiles in the
///   buffer for extra reuse — this is what costs the rigid platforms memory
///   access in Fig. 10.
/// * **Middle / high tiling flexibility** (UnfCU/FuseCU, Planaria): tiles
///   are free at the platform granularity (64 / 32); the principle
///   constructions are legalized by rounding interior tiles down to the
///   granularity (untiled and unit tiles stay).
/// * **Stationary flexibility** restricts which tensor may be the
///   Single-NRA stationary (it must be PE-resident): weights-only platforms
///   keep B; Gemmini adds C; the XS PE keeps any.  Two-/Three-NRA buffer
///   residency is software-visible on every platform and is not restricted.
/// * **Fusion** is planned only on FuseCU, with fused tiles legalized the
///   same way.

namespace fusecu {

/// The MM tensor a PE keeps resident under each stationarity.
int resident_tensor_for(Stationarity s);

/// Legalize an interior tile size to the platform granularity: unit tiles
/// and untiled dimensions are always legal; other tiles round down to a
/// multiple of \p granularity (at least 1).
Index legalize_tile(Index tile, Index extent, Index granularity);

/// An arch-constrained intra-operator optimum, carrying the spatial tile
/// the performance model maps onto the PE array.
struct ArchIntraOpt {
  Dataflow dataflow;
  AccessBreakdown access;
  std::string rule;
  Index spatial_rows = 1;
  Index spatial_cols = 1;
};

/// Best dataflow for \p op within \p arch's space.  Throws when even the
/// minimal working set exceeds the platform buffer.
ArchIntraOpt optimize_intra_for_arch(const TensorOp& op, const ArchSpec& arch);

/// One scheduled group on a platform.
struct ArchPlanStep {
  std::vector<int> op_indices;  ///< 1 op, or 2 for a fused pair
  bool fused = false;
  AccessCount access = 0;
  MacCount macs = 0;
  Index spatial_rows = 1;  ///< PE-mapped tile of the resident tensor
  Index spatial_cols = 1;
  std::string rule;
  /// The chosen schedule, for higher-fidelity replay (sim/fidelity.hpp):
  /// solo steps carry `dataflow`; phased fused steps carry `fused_phased`
  /// (resident fused steps carry neither and fall back to the roofline).
  std::optional<Dataflow> dataflow;
  std::optional<PhasedFusedDataflow> fused_phased;
};

struct ArchPlan {
  std::vector<ArchPlanStep> steps;
  AccessCount total_access = 0;
  MacCount total_macs = 0;
  int fused_pair_count() const;
};

/// Plan a linear chain on the platform: arch-constrained solo costs, plus
/// fused pairs when the platform supports fusion and fusing wins.
ArchPlan plan_chain_for_arch(const OperatorGraph& graph, const ArchSpec& arch);

}  // namespace fusecu
