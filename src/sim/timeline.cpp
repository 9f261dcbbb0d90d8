#include "sim/timeline.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "obs/metrics.hpp"

namespace fusecu {

namespace {

/// Pipeline state shared by both walkers.
class Pipeline {
 public:
  Pipeline(const ArchSpec& arch, double spatial_utilization, TraceRecorder* trace)
      : bytes_per_cycle_(arch.bandwidth_bytes_per_cycle),
        bytes_per_element_(arch.bytes_per_element),
        macs_per_cycle_(static_cast<double>(arch.total_pes()) * spatial_utilization),
        trace_(trace) {
    FCU_CHECK(spatial_utilization > 0.0 && spatial_utilization <= 1.0,
              "utilization out of range");
    if (trace_ != nullptr) {
      trace_->set_track_name(0, "DMA");
      trace_->set_track_name(1, "PE array");
    }
  }

  /// One schedule iteration: \p loaded_elements new tile data, then a pass
  /// of \p macs on the array.  One-deep double buffering: the DMA for
  /// iteration i may start once iteration i-2's compute has freed the spare
  /// tile buffer; iteration i's compute needs its own data and the array.
  /// \p occupancy_elements is the live working set (the iteration's tile
  /// footprint), sampled into the buffer-occupancy counter track.
  void iterate(AccessCount loaded_elements, MacCount macs, AccessCount occupancy_elements = 0) {
    const double load_cycles = static_cast<double>(loaded_elements) * bytes_per_element_ /
                               bytes_per_cycle_;
    const double compute_cycles = static_cast<double>(macs) / macs_per_cycle_;
    const double dma_start = std::max(dma_finish_, compute_finish_prev2_);
    dma_finish_ = dma_start + load_cycles;
    const double compute_start = std::max(compute_finish_prev1_, dma_finish_);
    compute_finish_prev2_ = compute_finish_prev1_;
    compute_finish_prev1_ = compute_start + compute_cycles;
    dma_busy_ += load_cycles;
    compute_busy_ += compute_cycles;
    traffic_ += loaded_elements;
    if (trace_ != nullptr) {
      const std::string iter = std::to_string(iterations_);
      if (load_cycles > 0.0) {
        trace_->record({"load#" + iter, "dma", 0, dma_start, load_cycles});
      }
      trace_->record({"pass#" + iter, "compute", 1, compute_start, compute_cycles});
      // Cumulative counter tracks, sampled when the iteration retires.
      const double at = compute_finish_prev1_;
      trace_->record_counter("dma_busy_cycles", at, dma_busy_);
      trace_->record_counter("compute_busy_cycles", at, compute_busy_);
      trace_->record_counter("traffic_elements", at, static_cast<double>(traffic_));
      trace_->record_counter("buffer_occupancy_elements", at,
                             static_cast<double>(occupancy_elements));
    }
    ++iterations_;
  }

  TimelineResult finish() const {
    TimelineResult r;
    r.cycles = static_cast<CycleCount>(std::ceil(compute_finish_prev1_));
    r.dma_busy = static_cast<CycleCount>(std::ceil(dma_busy_));
    r.compute_busy = static_cast<CycleCount>(std::ceil(compute_busy_));
    r.traffic = traffic_;
    r.iterations = iterations_;
    return r;
  }

 private:
  double bytes_per_cycle_;
  double bytes_per_element_;
  double macs_per_cycle_;
  double dma_finish_ = 0.0;
  double compute_finish_prev1_ = 0.0;  ///< finish of the latest pass
  double compute_finish_prev2_ = 0.0;  ///< finish of the pass before it
  double dma_busy_ = 0.0;
  double compute_busy_ = 0.0;
  AccessCount traffic_ = 0;
  Index iterations_ = 0;
  TraceRecorder* trace_ = nullptr;
};

/// Tracks one tensor's buffered tile coordinates.
struct Slot {
  std::vector<Index> coords;
  bool valid = false;

  AccessCount touch(std::vector<Index> next, AccessCount clipped) {
    if (valid && next == coords) return 0;
    coords = std::move(next);
    valid = true;
    return clipped;
  }
};

}  // namespace

TimelineResult simulate_timeline(const TensorOp& op, const Dataflow& df, const ArchSpec& arch,
                                 double spatial_utilization, TraceRecorder* trace) {
  validate_dataflow(op, df);
  FCU_CHECK(op.num_dims() == 3, "timeline walker targets matmul-shaped ops");

  Pipeline pipe(arch, spatial_utilization, trace);
  std::vector<Slot> slots(static_cast<std::size_t>(op.num_tensors()));

  std::vector<Index> iter(3, 0);
  auto index_of = [&](int dim) {
    for (int pos = 0; pos < 3; ++pos) {
      if (df.loop_order[static_cast<std::size_t>(pos)] == dim) {
        return iter[static_cast<std::size_t>(pos)];
      }
    }
    FCU_ASSERT_INTERNAL(false, "dim missing from loop order");
    return Index{0};
  };

  while (true) {
    AccessCount loaded = 0;
    MacCount pass_macs = 1;
    std::vector<Index> clip(3);
    for (int d = 0; d < 3; ++d) {
      const Index ti = index_of(d);
      clip[static_cast<std::size_t>(d)] =
          std::min(df.tile[static_cast<std::size_t>(d)], op.extent(d) - ti * df.tile[static_cast<std::size_t>(d)]);
      pass_macs *= clip[static_cast<std::size_t>(d)];
    }
    AccessCount footprint = 0;
    for (int t = 0; t < op.num_tensors(); ++t) {
      std::vector<Index> coords;
      AccessCount clipped = 1;
      for (int d : op.tensor(t).dims) {
        coords.push_back(index_of(d));
        clipped *= clip[static_cast<std::size_t>(d)];
      }
      footprint += clipped;
      loaded += slots[static_cast<std::size_t>(t)].touch(std::move(coords), clipped);
    }
    pipe.iterate(loaded, pass_macs, footprint);

    int pos = 2;
    while (pos >= 0) {
      const int dim = df.loop_order[static_cast<std::size_t>(pos)];
      if (++iter[static_cast<std::size_t>(pos)] < df.trips(op, dim)) break;
      iter[static_cast<std::size_t>(pos)] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  TimelineResult result = pipe.finish();
  FCU_COUNTER("sim/timeline/runs").add();
  FCU_COUNTER("sim/timeline/iterations").add(result.iterations);
  return result;
}

TimelineResult simulate_fused_timeline(const FusedPair& pair, const PhasedFusedDataflow& df,
                                       const ArchSpec& arch, double spatial_utilization,
                                       TraceRecorder* trace) {
  Pipeline pipe(arch, spatial_utilization, trace);
  Slot slot_a, slot_b, slot_d, slot_e;

  const Index nm = ceil_div(pair.m(), df.t_m), nl = ceil_div(pair.l(), df.t_l);
  const Index nk = ceil_div(pair.k(), df.t_k), nn = ceil_div(pair.n(), df.t_n);

  auto body = [&](Index mi, Index li) {
    const Index cm = std::min(df.t_m, pair.m() - mi * df.t_m);
    const Index cl = std::min(df.t_l, pair.l() - li * df.t_l);
    for (Index ki = 0; ki < nk; ++ki) {
      const Index ck = std::min(df.t_k, pair.k() - ki * df.t_k);
      AccessCount loaded = slot_a.touch({mi, ki}, cm * ck) + slot_b.touch({ki, li}, ck * cl);
      // K-phase working set: A and B tiles plus the intermediate C tile.
      pipe.iterate(loaded, cm * ck * cl, cm * ck + ck * cl + cm * cl);
    }
    for (Index ni = 0; ni < nn; ++ni) {
      const Index cn = std::min(df.t_n, pair.n() - ni * df.t_n);
      AccessCount loaded = slot_d.touch({li, ni}, cl * cn) + slot_e.touch({mi, ni}, cm * cn);
      // N-phase working set: the resident C tile plus D and E tiles.
      pipe.iterate(loaded, cm * cl * cn, cm * cl + cl * cn + cm * cn);
    }
  };
  if (df.l_outer) {
    for (Index li = 0; li < nl; ++li) {
      for (Index mi = 0; mi < nm; ++mi) body(mi, li);
    }
  } else {
    for (Index mi = 0; mi < nm; ++mi) {
      for (Index li = 0; li < nl; ++li) body(mi, li);
    }
  }
  TimelineResult result = pipe.finish();
  FCU_COUNTER("sim/fused_timeline/runs").add();
  FCU_COUNTER("sim/fused_timeline/iterations").add(result.iterations);
  return result;
}

}  // namespace fusecu
