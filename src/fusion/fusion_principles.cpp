#include "fusion/fusion_principles.hpp"

#include <array>
#include <utility>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace fusecu {

namespace {

/// One constructed fused candidate before pricing: a phased schedule, or
/// the two per-op nests around a resident intermediate.  Held inline; only
/// the candidates that leave the optimizer become FusedCandidates.
struct FusedConstruction {
  bool resident = false;
  PhasedFusedDataflow phased;
  FlatNest side1, side2;
};

/// Clamp-and-emit helper: emits the phased candidate (both loop orders)
/// when its footprint fits the buffer.
template <typename Emit>
void emit_phased(Emit& emit, const FusedPair& pair, BufferSize bs, Index t_m, Index t_k,
                 Index t_l, Index t_n) {
  FusedConstruction c;
  PhasedFusedDataflow& df = c.phased;
  df.t_m = clamp_index(t_m, 1, pair.m());
  df.t_k = clamp_index(t_k, 1, pair.k());
  df.t_l = clamp_index(t_l, 1, pair.l());
  df.t_n = clamp_index(t_n, 1, pair.n());
  const Index footprint = df.t_m * df.t_k + df.t_k * df.t_l + df.t_m * df.t_l +
                          df.t_l * df.t_n + df.t_m * df.t_n;
  if (footprint > bs) return;
  for (bool l_outer : {false, true}) {
    df.l_outer = l_outer;
    emit(c);
  }
}

/// Best nest for one side of a resident fusion: minimize the op's MA
/// excluding the fully-resident intermediate \p exclude_tensor, subject to
/// the two remaining tensors' tiles fitting \p residual elements.  \p extent
/// holds the op's (M, K, L)-position extents; both ops of a pair are
/// TensorOp::matmul, so their tensors carry mm::kTensorMasks.
///
/// The side cost space is tiny: each kept tensor misses exactly one loop
/// dimension, so MA(X) is either |X| or |X| * trips(miss_X).  Streaming one
/// tensor once is always free of footprint beyond a unit tile of the other
/// (order the nest with the other tensor's free dimension innermost), so the
/// optimum is one of two closed forms — stream X and block Y, or the mirror
/// — with the blocked tensor's free tile maximized to residual - 1.
std::optional<FlatNest> best_side_nest(const std::array<Index, 3>& extent, BufferSize residual,
                                       int exclude_tensor) {
  if (residual < 2) return std::nullopt;  // one tile element per kept tensor

  const auto& masks = mm::kTensorMasks;
  std::size_t kept[2] = {0, 0};
  std::size_t ki = 0;
  for (std::size_t t = 0; t < 3; ++t) {
    if (t != static_cast<std::size_t>(exclude_tensor)) kept[ki++] = t;
  }
  // Shared dimension s (indexes both kept tensors) and each side's free
  // dimension: dx only in kept[0], dy only in kept[1].
  int s = -1, dx = -1, dy = -1;
  for (int d = 0; d < 3; ++d) {
    const bool in0 = (masks[kept[0]] >> d) & 1u;
    const bool in1 = (masks[kept[1]] >> d) & 1u;
    if (in0 && in1) s = d;
    else if (in0) dx = d;
    else if (in1) dy = d;
  }
  FCU_ASSERT_INTERNAL(s >= 0 && dx >= 0 && dy >= 0, "resident side is not matmul-shaped");

  auto make = [&](int outer, int mid, int inner, Index t_outer) {
    FlatNest nest;
    nest.loop_order = {outer, mid, inner};
    const auto o = static_cast<std::size_t>(outer);
    nest.tile[o] = clamp_index(t_outer, 1, extent[o]);
    return nest;
  };
  // Stream kept[0] once (its free dim dy innermost, so no loop re-iterates
  // its tiles) while kept[1] re-loads unit tiles per dx block; mirror swaps
  // the roles.  t = residual - 1 leaves one element for the streamed tile.
  const FlatNest block_x = make(dx, s, dy, residual - 1);
  const FlatNest block_y = make(dy, s, dx, residual - 1);

  std::optional<FlatNest> best;
  AccessCount best_ma = 0;
  for (const FlatNest& nest : {block_x, block_y}) {
    auto tile_size = [&](std::size_t t) {
      Index size = 1;
      for (std::size_t d = 0; d < 3; ++d) {
        if ((masks[t] >> d) & 1u) size *= nest.tile[d];
      }
      return size;
    };
    if (tile_size(kept[0]) + tile_size(kept[1]) > residual) continue;
    std::array<AccessCount, 3> per_tensor{};
    const AccessCount total = nest_access(extent, nest.loop_order, nest.tile, masks, per_tensor);
    const AccessCount ma = total - per_tensor[static_cast<std::size_t>(exclude_tensor)];
    if (!best || ma < best_ma) {
      best = nest;
      best_ma = ma;
    }
  }
  return best;
}

/// Emit the phased family for one (T_K, T_N) choice: closed-form two-tile
/// sweeps over (T_M, T_L) under both loop orders' weight models, plus the
/// four untile/unit boundary probes.  Footprint for fixed c = T_K + T_N is
/// T_M T_L + c (T_M + T_L), so every probe is a one-division closed form.
template <typename Emit>
void emit_phased_family(Emit& emit, const FusedPair& pair, BufferSize bs, Index t_k,
                        Index t_n) {
  const Index m = pair.m(), k = pair.k(), l = pair.l(), n = pair.n();
  const Index c = t_k + t_n;

  // Interior weights: trips of K and N never multiply any tensor's MA, so
  // with T_M, T_L both interior the cost is w_M * n_M + w_L * n_L + const.
  // A tiled K keeps the producer reduction effective (A re-read per L step /
  // B per M step); a tiled N keeps the consumer free loop effective (E
  // partial-sum spill per L step / D re-read per M step).
  const bool k_eff = t_k < k;
  const bool n_eff = t_n < n;
  const double wa = static_cast<double>(m * k), wb = static_cast<double>(k * l);
  const double wd = static_cast<double>(l * n), we = static_cast<double>(m * n);
  const double m_outer_wm = wb + wd, m_outer_wl = (k_eff ? wa : 0.0) + (n_eff ? we : 0.0);
  const double l_outer_wm = (k_eff ? wb : 0.0) + (n_eff ? wd : 0.0), l_outer_wl = wa + we;

  const std::array<std::pair<double, double>, 2> weight_models = {
      {{m_outer_wm, m_outer_wl}, {l_outer_wm, l_outer_wl}}};
  for (const auto& [wm, wl] : weight_models) {
    for (const auto& [t_m, t_l] : two_tile_candidates(m, l, wm, wl, c, c, bs)) {
      emit_phased(emit, pair, bs, t_m, t_k, t_l, t_n);
    }
  }
  // Boundary probes (clamped and footprint-checked by emit_phased):
  emit_phased(emit, pair, bs, (bs - c * l) / (l + c), t_k, l, t_n);  // untile L
  emit_phased(emit, pair, bs, m, t_k, (bs - c * m) / (m + c), t_n);  // untile M
  emit_phased(emit, pair, bs, m, t_k, l, t_n);                       // untile both
  emit_phased(emit, pair, bs, (bs - c) / (1 + c), t_k, 1, t_n);      // unit L
  emit_phased(emit, pair, bs, 1, t_k, (bs - c) / (1 + c), t_n);      // unit M
}

/// Every principled fused construction for (pair, bs), in the order the
/// optimizer's first-wins argmin depends on.
template <typename Emit>
void for_each_fused_construction(const FusedPair& pair, BufferSize bs, Emit&& emit) {
  const Index k = pair.k(), n = pair.n();

  // --- Phased fusion (Fig. 4a-d).  Trips of K and N never appear as MA
  // multipliers, so T_K in {1, K} and T_N in {1, N} dominate every interior
  // choice (same cost, strictly larger footprint); each of the four corner
  // combinations reduces to a closed-form two-tile problem over (T_M, T_L).
  // T_K = T_N = 1 recovers the paper's tile fusion (4a), the untile-L/M
  // boundaries its Two-NRA patterns (4b/c), and untiled K or N with an
  // untiled intermediate dimension its operand-resident Three-NRA form (4d).
  // Corners run in ascending (T_K, T_N) order, once each when K or N is 1.
  const std::array<Index, 2> k_corners = {1, k};
  const std::array<Index, 2> n_corners = {1, n};
  for (std::size_t i = 0; i < (k > 1 ? 2u : 1u); ++i) {
    for (std::size_t j = 0; j < (n > 1 ? 2u : 1u); ++j) {
      emit_phased_family(emit, pair, bs, k_corners[i], n_corners[j]);
    }
  }

  // --- Three-NRA resident intermediate (Fig. 4e): the whole of C on-chip,
  // each op's external tensors scheduled independently in the remaining
  // budget (the footprint charges only the larger side, since the ops run
  // sequentially around the shared resident C).
  const BufferSize residual = bs - pair.intermediate_size();
  const std::optional<FlatNest> side1 =
      best_side_nest({pair.m(), pair.k(), pair.l()}, residual, mm::kTensorC);
  const std::optional<FlatNest> side2 = best_side_nest({pair.m(), pair.l(), pair.n()}, residual, 0);
  if (side1 && side2) {
    FusedConstruction c;
    c.resident = true;
    c.side1 = *side1;
    c.side2 = *side2;
    emit(c);
  }
}

FusedCandidate to_candidate(const FusedPair& pair, const FusedConstruction& c) {
  if (c.resident) {
    return {std::nullopt, ResidentFusedDataflow{c.side1.to_dataflow(), c.side2.to_dataflow()},
            "F3(resident-C)"};
  }
  return {c.phased, std::nullopt,
          std::string("F-phased(K=") + (c.phased.t_k == pair.k() ? "untiled" : "tiled") +
              ",N=" + (c.phased.t_n == pair.n() ? "untiled" : "tiled") + ")"};
}

}  // namespace

bool same_nra_regime(const FusedPair& pair, BufferSize bs) {
  return optimal_regime(pair.op1(), bs) == optimal_regime(pair.op2(), bs);
}

std::vector<FusedCandidate> fused_principle_candidates(const FusedPair& pair, BufferSize bs) {
  std::vector<FusedCandidate> out;
  for_each_fused_construction(
      pair, bs, [&](const FusedConstruction& c) { out.push_back(to_candidate(pair, c)); });
  return out;
}

std::optional<FusedOptResult> optimize_fused_pair(const FusedPair& pair, BufferSize bs) {
  ScopedSpan span("optimize/fused_pair", FCU_HISTOGRAM("time/optimize/fused_pair"));
  FCU_COUNTER("principles/optimize_fused_pair/calls").add();
  std::optional<FusedConstruction> best;
  FusedAccess best_access;
  for_each_fused_construction(pair, bs, [&](const FusedConstruction& c) {
    const FusedAccess a = c.resident ? evaluate_resident(pair, c.side1, c.side2)
                                     : evaluate_phased(pair, c.phased);
    if (a.buffer_footprint > bs) return;
    if (!best || a.total < best_access.total) {
      best = c;
      best_access = a;
    }
  });

  std::optional<FusedOptResult> result;
  if (best) {
    result.emplace();
    result->access = best_access;
    result->chosen = to_candidate(pair, *best);
    result->regime1 = optimal_regime(pair.op1(), bs);
    result->regime2 = optimal_regime(pair.op2(), bs);
    span.note(result->chosen.rule.c_str());
  } else {
    span.note("not_fusable");
  }
  return result;
}

AccessCount unfused_pair_access(const FusedPair& pair, BufferSize bs) {
  return optimize_intra(pair.op1(), bs).access.total +
         optimize_intra(pair.op2(), bs).access.total;
}

FusionDecision decide_fusion(const FusedPair& pair, BufferSize bs) {
  FusionDecision d;
  d.unfused_ma = unfused_pair_access(pair, bs);
  d.principle4_predicts = same_nra_regime(pair, bs);
  d.fused = optimize_fused_pair(pair, bs);
  d.fusable = d.fused.has_value();
  if (d.fused) {
    d.fused_ma = d.fused->access.total;
    d.profitable = d.fused_ma < d.unfused_ma;
  }
  return d;
}

}  // namespace fusecu
