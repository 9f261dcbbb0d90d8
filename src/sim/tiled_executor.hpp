#pragma once

#include "dataflow/access_model.hpp"
#include "fusion/fused_pair.hpp"
#include "sim/compute_unit.hpp"
#include "sim/fusecu_quad.hpp"
#include "obs/trace.hpp"

/// \file tiled_executor.hpp
/// Schedule interpreters: execute a *complete* dataflow — every tile loop,
/// every buffer fill, every PE-array pass — on the functional simulator.
///
/// This closes the loop between the two halves of the library: the
/// analytical reuse model (src/dataflow, src/fusion) predicts how many
/// elements cross the memory<->buffer boundary, and these executors *count*
/// them while producing bit-exact results.  The integration tests assert
/// per-tensor equality between prediction and execution, which is the
/// repository's strongest evidence that the communication lower bounds are
/// statements about executable schedules, not just formulas.
///
/// Model: one buffer slot per tensor holds the current tile; a tile is
/// (re)loaded from memory whenever the scheduled tile coordinates change
/// (edge-clipped sizes).  Output tiles write back on eviction; a revisited
/// output tile is re-loaded (partial-sum spill), matching the symmetric
/// accounting of Eq. 1/3.  Each innermost tile computation runs on the
/// systolic array in a mode chosen to fit the tile shape.

namespace fusecu {

struct TiledExecutionResult {
  Matrix output;
  /// Memory<->buffer element transfers, indexed like op.tensors().
  std::vector<AccessCount> traffic_per_tensor;
  AccessCount total_traffic = 0;
  CycleCount compute_cycles = 0;  ///< summed array-pass cycles
};

/// Execute matmul \p op under \p df on \p cu.  The tile shapes must fit the
/// array in at least one stationary mode (throws otherwise).  When \p trace
/// is non-null, per-pass compute events (track 1) and a cumulative
/// "executor_traffic_elements" counter track are recorded; the time axis is
/// the running sum of array-pass cycles (the executor is functional, so
/// loads carry no timing).
TiledExecutionResult execute_tiled(const TensorOp& op, const Dataflow& df, const Matrix& a,
                                   const Matrix& b, ComputeUnit& cu,
                                   TraceRecorder* trace = nullptr);

struct FusedExecutionResult {
  Matrix output;  ///< E = (A x B) x D
  AccessCount traffic_a = 0;
  AccessCount traffic_b = 0;
  AccessCount traffic_d = 0;
  AccessCount traffic_e = 0;
  AccessCount traffic_c = 0;  ///< must stay 0: the intermediate never spills
  AccessCount total_traffic = 0;
  CycleCount compute_cycles = 0;
};

/// Execute a phased fused dataflow (Sec. III-B / Fig. 4) on the FuseCU
/// fabric: shared (M, L) tile loops, K-phase producing each intermediate
/// tile in place, N-phase consuming it.  The intermediate tile shape must
/// fit one compute unit (t_m, t_l <= N).
FusedExecutionResult execute_fused_phased(const FusedPair& pair, const PhasedFusedDataflow& df,
                                          const Matrix& a, const Matrix& b, const Matrix& d,
                                          FuseCuQuad& quad);

/// Execute a resident fused dataflow (Fig. 4(e)): the producer runs its own
/// schedule writing C into an on-chip region (never memory), then the
/// consumer runs its schedule reading it back.  Tile shapes of each
/// schedule must fit the array in some stationary mode.
FusedExecutionResult execute_fused_resident(const FusedPair& pair,
                                            const ResidentFusedDataflow& df, const Matrix& a,
                                            const Matrix& b, const Matrix& d, FuseCuQuad& quad);

}  // namespace fusecu
