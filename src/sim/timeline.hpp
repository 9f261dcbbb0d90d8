#pragma once

#include "arch/arch_spec.hpp"
#include "dataflow/access_model.hpp"
#include "fusion/fused_pair.hpp"
#include "obs/trace.hpp"

/// \file timeline.hpp
/// Tile-resolved double-buffered execution timeline.
///
/// The roofline model (sim/perf_model.hpp) bounds a step's cycles by
/// max(compute, memory).  This simulator walks the *actual* tile schedule
/// of a dataflow and pipelines the two engines the way real spatial
/// accelerators do:
///
///   * a DMA engine streams each iteration's new tiles at the platform
///     bandwidth (serialized in schedule order);
///   * the PE array computes an iteration only once its tiles have landed
///     (double buffering: the next loads proceed during compute).
///
/// The result separates ideal overlap from startup/skew effects: timeline
/// cycles are >= the roofline bound and <= the fully serialized sum; the
/// gap quantifies how much double buffering recovers — a refinement the
/// property tests pin down.

namespace fusecu {

struct TimelineResult {
  CycleCount cycles = 0;           ///< end-to-end makespan
  CycleCount dma_busy = 0;         ///< cycles the DMA engine was transferring
  CycleCount compute_busy = 0;     ///< cycles the array was computing
  AccessCount traffic = 0;         ///< elements transferred (== access model)
  Index iterations = 0;            ///< tile-loop iterations executed

  /// Roofline lower bound implied by the same schedule.
  CycleCount roofline() const { return std::max(dma_busy, compute_busy); }
  /// Fully serialized upper bound.
  CycleCount serialized() const { return dma_busy + compute_busy; }
};

/// Walk the tiled schedule of (op, df) on \p arch with double buffering.
/// Compute time per iteration uses the full array at the given spatial
/// utilization (pass 1.0 for an ideally mapped tile).  When \p trace is
/// non-null, per-iteration DMA (track 0) and compute (track 1) events are
/// recorded for chrome-tracing export (obs/trace.hpp).
TimelineResult simulate_timeline(const TensorOp& op, const Dataflow& df, const ArchSpec& arch,
                                 double spatial_utilization = 1.0,
                                 TraceRecorder* trace = nullptr);

/// Same for a phased fused pair: producer (K) and consumer (N) passes share
/// the array; tiles of A/B/D/E stream, the intermediate never transfers.
TimelineResult simulate_fused_timeline(const FusedPair& pair, const PhasedFusedDataflow& df,
                                       const ArchSpec& arch, double spatial_utilization = 1.0,
                                       TraceRecorder* trace = nullptr);

}  // namespace fusecu
