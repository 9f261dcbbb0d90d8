#include "fusion/fusion_principles.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string_view>
#include <tuple>
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
  int rank = 0;  ///< position in for_each_fused_construction()'s order: the tie-break
};

/// Clamp-and-emit helper: emits the phased candidate (both loop orders, at
/// ranks \p rank and rank + 1) when its footprint fits the buffer.
template <typename Emit>
void emit_phased(Emit& emit, const FusedPair& pair, BufferSize bs, Index t_m, Index t_k,
                 Index t_l, Index t_n, int rank) {
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
    c.rank = rank + (l_outer ? 1 : 0);
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

/// One (T_K, T_N) corner of the phased family.  Trips of K and N never
/// appear as MA multipliers, so T_K in {1, K} and T_N in {1, N} dominate
/// every interior choice (same cost, strictly larger footprint); each corner
/// reduces to a closed-form two-tile problem over (T_M, T_L).  T_K = T_N = 1
/// recovers the paper's tile fusion (4a), the untile-L/M boundaries its
/// Two-NRA patterns (4b/c), and untiled K or N with an untiled intermediate
/// dimension its operand-resident Three-NRA form (4d).
struct PhasedCorner {
  Index t_k = 1, t_n = 1;
  int rank = 0;  ///< rank of the corner's first construction
};

/// Ranks per corner: the sweep's pairs from two two-tile sweeps, two loop
/// orders each, then five boundary probes, two loop orders each.
constexpr int kSweepRanks = 4 * kMaxTwoTileProbes;
constexpr int kCornerRanks = kSweepRanks + 10;

/// The corners in ascending (T_K, T_N) order, once each when K or N is 1.
struct PhasedCorners {
  std::array<PhasedCorner, 4> at{};
  int size = 0;
};

PhasedCorners phased_corners(const FusedPair& pair) {
  PhasedCorners out;
  const std::array<Index, 2> k_corners = {1, pair.k()};
  const std::array<Index, 2> n_corners = {1, pair.n()};
  for (std::size_t i = 0; i < (pair.k() > 1 ? 2u : 1u); ++i) {
    for (std::size_t j = 0; j < (pair.n() > 1 ? 2u : 1u); ++j) {
      out.at[static_cast<std::size_t>(out.size)] = {k_corners[i], n_corners[j],
                                                    out.size * kCornerRanks};
      ++out.size;
    }
  }
  return out;
}

/// A corner's external tensors, |A| = MK, |B| = KL, |D| = LN and |E| = MN,
/// and whether its T_K and T_N are tiled (below K and N).
struct PhasedTerms {
  AccessCount a = 0, b = 0, d = 0, e = 0;
  bool k_eff = false, n_eff = false;
};

PhasedTerms phased_terms(const FusedPair& pair, const PhasedCorner& corner) {
  const Index m = pair.m(), k = pair.k(), l = pair.l(), n = pair.n();
  return {m * k, k * l, l * n, m * n, corner.t_k < k, corner.t_n < n};
}

/// A corner's cost under one loop order while T_M and T_L are both
/// interior: konst + w_m * n_M + w_l * n_L.
struct PhasedWeights {
  double konst = 0, w_m = 0, w_l = 0;
};

/// The (M outer, L outer) weight models.  Trips of K and N never multiply
/// any tensor's MA; a tiled K keeps the producer reduction effective (A
/// re-read per L step / B per M step), a tiled N keeps the consumer free
/// loop effective (E partial-sum spill per L step / D re-read per M step).
/// An untiled one leaves its tensor read once, in konst.
std::array<PhasedWeights, 2> phased_weights(const PhasedTerms& w) {
  const bool k_eff = w.k_eff, n_eff = w.n_eff;
  const double wa = static_cast<double>(w.a), wb = static_cast<double>(w.b);
  const double wd = static_cast<double>(w.d), we = static_cast<double>(w.e);
  return {{{(k_eff ? 0.0 : wa) + (n_eff ? 0.0 : we), wb + wd,
            (k_eff ? wa : 0.0) + (n_eff ? we : 0.0)},
           {(k_eff ? 0.0 : wb) + (n_eff ? 0.0 : wd), (k_eff ? wb : 0.0) + (n_eff ? wd : 0.0),
            wa + we}}};
}

/// The exact phased totals (M outer, L outer) of a corner's (T_M, T_L) from
/// its trip counts (n_M, n_L) alone: evaluate_phased()'s count.  A is read
/// once per L step while K is tiled and B once per M step; E and D likewise
/// while N is tiled.  With K (or N) untiled, the tensor of the inner shared
/// loop (B and D under M outer, A and E under L outer) is still read once
/// per outer step while the inner loop is tiled; the other is read once.
std::array<AccessCount, 2> phased_totals(const PhasedTerms& w, Index n_m, Index n_l) {
  return {w.a * (w.k_eff ? n_l : 1) + w.e * (w.n_eff ? n_l : 1) +
              w.b * (w.k_eff || n_l > 1 ? n_m : 1) + w.d * (w.n_eff || n_l > 1 ? n_m : 1),
          w.b * (w.k_eff ? n_m : 1) + w.d * (w.n_eff ? n_m : 1) +
              w.a * (w.k_eff || n_m > 1 ? n_l : 1) + w.e * (w.n_eff || n_m > 1 ? n_l : 1)};
}

/// The corner's closed-form two-tile sweeps over (T_M, T_L), one per loop
/// order's weight model, each pair once (a later twin prices the same and
/// never wins the rank tie-break).  Footprint for fixed c = T_K + T_N is
/// T_M T_L + c (T_M + T_L).
template <typename Emit>
void emit_phased_sweep(Emit& emit, const FusedPair& pair, BufferSize bs,
                       const PhasedCorner& corner) {
  const Index c = corner.t_k + corner.t_n;
  SeenTilePairs<2 * kMaxTwoTileProbes> seen;
  int rank = corner.rank;
  for (const PhasedWeights& w : phased_weights(phased_terms(pair, corner))) {
    for (const auto& [t_m, t_l] :
         two_tile_candidates(pair.m(), pair.l(), w.w_m, w.w_l, c, c, bs)) {
      if (!seen.insert(t_m, t_l)) continue;
      emit_phased(emit, pair, bs, t_m, corner.t_k, t_l, corner.t_n, rank);
      rank += 2;
    }
  }
}

/// The corner's five untile/unit boundary probes, clamped, that fit the
/// buffer, as visit(T_M, T_L, rank of its M-outer construction).
template <typename Visit>
void for_each_boundary_probe(const FusedPair& pair, BufferSize bs, const PhasedCorner& corner,
                             Visit&& visit) {
  const Index m = pair.m(), l = pair.l();
  const Index c = corner.t_k + corner.t_n;
  const std::array<std::pair<Index, Index>, 5> probes = {{
      {(bs - c * l) / (l + c), l},  // untile L
      {m, (bs - c * m) / (m + c)},  // untile M
      {m, l},                       // untile both
      {(bs - c) / (1 + c), 1},      // unit L
      {1, (bs - c) / (1 + c)},      // unit M
  }};
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const Index t_m = clamp_index(probes[i].first, 1, m);
    const Index t_l = clamp_index(probes[i].second, 1, l);
    if (t_m * t_l + c * (t_m + t_l) > bs) continue;
    visit(t_m, t_l, corner.rank + kSweepRanks + 2 * static_cast<int>(i));
  }
}

/// The corner's boundary probes as constructions.
template <typename Emit>
void emit_phased_probes(Emit& emit, const FusedPair& pair, BufferSize bs,
                        const PhasedCorner& corner) {
  for_each_boundary_probe(pair, bs, corner, [&](Index t_m, Index t_l, int rank) {
    emit_phased(emit, pair, bs, t_m, corner.t_k, t_l, corner.t_n, rank);
  });
}

/// Admissible floor of the corner's sweep given its cheapest probe
/// (DESIGN.md §6c, "Pruned closed forms").  A sweep pair with T_M = M or
/// T_L = L costs at least the untile-M or untile-L probe of the same loop
/// order: the probe's other tile is the largest that fits, and the phased
/// cost never rises with a tile.  A pair with both tiles interior costs
/// konst + w_m n_M + w_l n_L under its loop order, with n_M >= M / T_M,
/// n_L >= L / T_L, both >= 1, and T_M T_L <= P = (sqrt(c^2 + bs) - c)^2;
/// AM-GM bounds that by konst + 2 sqrt(w_m w_l M L / P).  bs is clamped
/// at 0 (a negative buffer admits nothing) so the floor is never NaN.
double phased_sweep_floor(const FusedPair& pair, BufferSize bs, const PhasedCorner& corner,
                          AccessCount cheapest_probe) {
  const double c = static_cast<double>(corner.t_k + corner.t_n);
  const double root = std::sqrt(c * c + std::max(0.0, static_cast<double>(bs))) - c;
  const double ml = static_cast<double>(pair.m() * pair.l());
  double floor = static_cast<double>(cheapest_probe);
  for (const PhasedWeights& w : phased_weights(phased_terms(pair, corner))) {
    const double amgm = 2.0 * std::sqrt(w.w_m * w.w_l * ml / (root * root));
    floor = std::min(floor, w.konst + std::max(w.w_m + w.w_l, amgm));
  }
  return floor;
}

/// Fig. 4e: the whole of C on-chip, each op's external tensors scheduled
/// independently in the remaining budget (the footprint charges only the
/// larger side, since the ops run sequentially around the shared resident
/// C).  Ranked after every corner.
template <typename Emit>
void emit_resident(Emit& emit, const FusedPair& pair, BufferSize bs) {
  const BufferSize residual = bs - pair.intermediate_size();
  const std::optional<FlatNest> side1 =
      best_side_nest({pair.m(), pair.k(), pair.l()}, residual, mm::kTensorC);
  const std::optional<FlatNest> side2 = best_side_nest({pair.m(), pair.l(), pair.n()}, residual, 0);
  if (side1 && side2) {
    FusedConstruction c;
    c.resident = true;
    c.side1 = *side1;
    c.side2 = *side2;
    c.rank = 4 * kCornerRanks;
    emit(c);
  }
}

/// Every principled fused construction for (pair, bs), in rank order: per
/// corner its sweep then its probes (Fig. 4a-d), then the resident form.
template <typename Emit>
void for_each_fused_construction(const FusedPair& pair, BufferSize bs, Emit&& emit) {
  const PhasedCorners corners = phased_corners(pair);
  for (int i = 0; i < corners.size; ++i) {
    const PhasedCorner& corner = corners.at[static_cast<std::size_t>(i)];
    emit_phased_sweep(emit, pair, bs, corner);
    emit_phased_probes(emit, pair, bs, corner);
  }
  emit_resident(emit, pair, bs);
}

/// The construction as a plan record: its configuration and rule (a string
/// literal), with the access totals and regime tags left for the optimizer.
FusedPlanRecord record_of(const FusedPair& pair, const FusedConstruction& c) {
  static constexpr std::string_view kPhased[2][2] = {
      {"F-phased(K=tiled,N=tiled)", "F-phased(K=tiled,N=untiled)"},
      {"F-phased(K=untiled,N=tiled)", "F-phased(K=untiled,N=untiled)"}};
  FusedPlanRecord record;
  record.resident = c.resident;
  record.phased = c.phased;
  record.side1 = c.side1;
  record.side2 = c.side2;
  const int k_untiled = c.phased.t_k == pair.k() ? 1 : 0;
  const int n_untiled = c.phased.t_n == pair.n() ? 1 : 0;
  record.rule = c.resident ? "F3(resident-C)" : kPhased[k_untiled][n_untiled];
  return record;
}

FusedCandidate to_candidate(const FusedPlanRecord& r) {
  if (r.resident) {
    return {std::nullopt, ResidentFusedDataflow{r.side1.to_dataflow(), r.side2.to_dataflow()},
            std::string(r.rule)};
  }
  return {r.phased, std::nullopt, std::string(r.rule)};
}

/// The labels of FusedPair::op1() and op2(): their regime tags' closed
/// forms name them in errors.
constexpr MatmulLabels kOp1Labels{{"M", "K", "L"}, {"A", "B", "C"}, "fused_op1", ""};
constexpr MatmulLabels kOp2Labels{{"M", "K", "L"}, {"C", "D", "E"}, "fused_op2", ""};

MatmulShape op1_shape(const FusedPair& pair) { return matmul_shape(pair.m(), pair.k(), pair.l()); }
MatmulShape op2_shape(const FusedPair& pair) { return matmul_shape(pair.m(), pair.l(), pair.n()); }

}  // namespace

namespace detail {

double phased_corner_floor(const FusedPair& pair, BufferSize bs, Index t_k, Index t_n) {
  FCU_CHECK((t_k == 1 || t_k == pair.k()) && (t_n == 1 || t_n == pair.n()),
            "a phased corner has T_K in {1, K} and T_N in {1, N}");
  const PhasedCorner corner{t_k, t_n, 0};
  AccessCount cheapest = std::numeric_limits<AccessCount>::max();
  auto probe = [&](const FusedConstruction& c) {
    cheapest = std::min(cheapest, evaluate_phased(pair, c.phased).total);
  };
  emit_phased_probes(probe, pair, bs, corner);
  return phased_sweep_floor(pair, bs, corner, cheapest);
}

std::array<AccessCount, 2> phased_probe_totals(const FusedPair& pair,
                                               const PhasedFusedDataflow& df) {
  FCU_CHECK(df.t_m >= 1 && df.t_m <= pair.m() && df.t_l >= 1 && df.t_l <= pair.l(),
            "T_M or T_L out of range");
  return phased_totals(phased_terms(pair, {df.t_k, df.t_n, 0}), ceil_div(pair.m(), df.t_m),
                       ceil_div(pair.l(), df.t_l));
}

}  // namespace detail

bool same_nra_regime(const FusedPair& pair, BufferSize bs) {
  return optimal_regime(op1_shape(pair), bs, kOp1Labels) ==
         optimal_regime(op2_shape(pair), bs, kOp2Labels);
}

std::vector<FusedCandidate> fused_principle_candidates(const FusedPair& pair, BufferSize bs) {
  std::vector<FusedCandidate> out;
  for_each_fused_construction(
      pair, bs,
      [&](const FusedConstruction& c) { out.push_back(to_candidate(record_of(pair, c))); });
  return out;
}

namespace {

/// A fused construction's place in optimize_fused_pair()'s order: total,
/// then its rank in for_each_fused_construction(), spelled (base, T_M, T_L,
/// loop order).  A sweep pair's base is its corner's rank plus its weight
/// model, which sorts as the ranks do: the first model's pairs ascending,
/// then the second's.  A probe's base is its own rank, unique to it; the
/// resident form's is its rank, with the rest at 0.
using FusedKey = std::tuple<AccessCount, int, Index, Index, int>;

/// The first construction of least total, as a FusedKey argmin.
struct FusedWinner {
  std::optional<FusedConstruction> construction;
  FusedKey key{};
  int priced = 0;  ///< constructions priced

  AccessCount total() const { return std::get<0>(key); }

  /// Counts one priced construction; true when it beats the incumbent.
  bool priced_beats(const FusedKey& k) {
    ++priced;
    return !construction || k < key;
  }

  /// Prices both loop orders of the corner's (T_M, T_L) from its trip
  /// counts, at key base \p base; returns the cheaper total.
  AccessCount price_phased(const PhasedCorner& corner, const PhasedTerms& terms, Index t_m,
                           Index n_m, Index t_l, Index n_l, int base) {
    const std::array<AccessCount, 2> totals = phased_totals(terms, n_m, n_l);
    for (int l_outer = 0; l_outer < 2; ++l_outer) {
      const FusedKey k{totals[static_cast<std::size_t>(l_outer)], base, t_m, t_l, l_outer};
      if (!priced_beats(k)) continue;
      FusedConstruction& c = construction.emplace();
      c.phased = {t_m, corner.t_k, t_l, corner.t_n, l_outer == 1};
      key = k;
    }
    return std::min(totals[0], totals[1]);
  }
};

}  // namespace

std::optional<FusedPlanRecord> optimize_fused_record(const FusedPair& pair, BufferSize bs) {
  ScopedSpan span("optimize/fused_pair", FCU_HISTOGRAM("time/optimize/fused_pair"));
  FCU_COUNTER("principles/optimize_fused_pair/calls").add();
  FusedWinner best;
  // The argmin of for_each_fused_construction() by (total, rank), so the
  // pricing order is free: every probe and the resident form first, then
  // the corners' sweeps cheapest floor first, stopping at the first floor
  // strictly above the incumbent.  Phased constructions are priced from
  // their trip counts; only the winner is re-priced by evaluate_phased.
  const PhasedCorners corners = phased_corners(pair);
  std::array<PhasedTerms, 4> terms{};
  std::array<std::pair<double, int>, 4> sweeps;  // entries past corners.size sort last
  sweeps.fill({std::numeric_limits<double>::infinity(), 4});
  for (int i = 0; i < corners.size; ++i) {
    const auto at = static_cast<std::size_t>(i);
    const PhasedCorner& corner = corners.at[at];
    terms[at] = phased_terms(pair, corner);
    AccessCount cheapest = std::numeric_limits<AccessCount>::max();
    for_each_boundary_probe(pair, bs, corner, [&](Index t_m, Index t_l, int rank) {
      cheapest = std::min(cheapest, best.price_phased(corner, terms[at], t_m,
                                                      ceil_div(pair.m(), t_m), t_l,
                                                      ceil_div(pair.l(), t_l), rank));
    });
    sweeps[at] = {phased_sweep_floor(pair, bs, corner, cheapest), i};
  }
  auto price_resident = [&](const FusedConstruction& c) {
    const FusedAccess a = evaluate_resident(pair, c.side1, c.side2);
    const FusedKey key{a.total, c.rank, 0, 0, 0};
    if (best.priced_beats(key) && a.buffer_footprint <= bs) {
      best.construction = c;
      best.key = key;
    }
  };
  emit_resident(price_resident, pair, bs);
  std::sort(sweeps.begin(), sweeps.end());
  for (int i = 0; i < corners.size; ++i) {
    const auto& [floor, at] = sweeps[static_cast<std::size_t>(i)];
    if (best.construction && floor_exceeds(floor, best.total())) break;
    const PhasedCorner& corner = corners.at[static_cast<std::size_t>(at)];
    const PhasedTerms& corner_terms = terms[static_cast<std::size_t>(at)];
    const Index c = corner.t_k + corner.t_n;
    SeenTilePairs<2 * kMaxTwoTileProbes> seen;
    int model = 0;
    for (const PhasedWeights& w : phased_weights(corner_terms)) {
      for_each_two_tile_probe(pair.m(), pair.l(), w.w_m, w.w_l, c, c, bs,
                              [&](Index t_m, Index n_m, Index t_l, Index n_l) {
                                if (!seen.insert(t_m, t_l)) return;
                                best.price_phased(corner, corner_terms, t_m, n_m, t_l, n_l,
                                                  corner.rank + model);
                              });
      ++model;
    }
  }
  FCU_COUNTER("principles/optimize_fused_pair/candidates").add(best.priced);

  if (!best.construction) {
    span.note("not_fusable");
    return std::nullopt;
  }
  const FusedConstruction& c = *best.construction;
  FusedPlanRecord record = record_of(pair, c);
  record.access =
      c.resident ? evaluate_resident(pair, c.side1, c.side2) : evaluate_phased(pair, c.phased);
  FCU_ASSERT_INTERNAL(record.access.total == best.total(),
                      "trip-count pricing disagrees with the access model");
  record.regime1 = optimal_regime(op1_shape(pair), bs, kOp1Labels);
  record.regime2 = optimal_regime(op2_shape(pair), bs, kOp2Labels);
  if (span.recording()) span.note(std::string(record.rule).c_str());
  return record;
}

FusedOptResult materialize(const FusedPlanRecord& record) {
  FusedOptResult result;
  result.access = record.access;
  result.chosen = to_candidate(record);
  result.regime1 = record.regime1;
  result.regime2 = record.regime2;
  return result;
}

std::optional<FusedOptResult> optimize_fused_pair(const FusedPair& pair, BufferSize bs) {
  const std::optional<FusedPlanRecord> record = optimize_fused_record(pair, bs);
  if (!record) return std::nullopt;
  return materialize(*record);
}

AccessCount unfused_pair_access(const FusedPair& pair, BufferSize bs) {
  return optimize_intra_record(op1_shape(pair), bs, kOp1Labels).total +
         optimize_intra_record(op2_shape(pair), bs, kOp2Labels).total;
}

FusionDecision decide_fusion(const FusedPair& pair, BufferSize bs) {
  FusionDecision d;
  const IntraPlanRecord r1 = optimize_intra_record(op1_shape(pair), bs, kOp1Labels);
  const IntraPlanRecord r2 = optimize_intra_record(op2_shape(pair), bs, kOp2Labels);
  d.unfused_ma = r1.total + r2.total;
  d.principle4_predicts = r1.nra == r2.nra;
  d.fused = optimize_fused_pair(pair, bs);
  d.fusable = d.fused.has_value();
  if (d.fused) {
    d.fused_ma = d.fused->access.total;
    d.profitable = d.fused_ma < d.unfused_ma;
  }
  return d;
}

}  // namespace fusecu
