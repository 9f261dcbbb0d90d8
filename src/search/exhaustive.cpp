#include "search/exhaustive.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace fusecu {

namespace {

constexpr std::array<std::array<int, 3>, 6> kOrders3 = {
    {{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}};

/// A 3-dim operator in the flat form nest_access() prices, held on the
/// stack: its extents and one dimension mask per tensor, built from
/// op.tensor(t).dims so permuted layouts price like the op itself.  The
/// oracle prices every candidate here and builds a Dataflow for the winner
/// only.
struct FlatOp {
  std::array<Index, 3> extents{};
  std::array<std::uint32_t, kMaxNestDims> masks{};
  std::size_t num_tensors = 0;

  explicit FlatOp(const TensorOp& op) : num_tensors(static_cast<std::size_t>(op.num_tensors())) {
    FCU_CHECK(op.num_dims() == 3, "the exhaustive oracle targets 3-dim operators");
    FCU_CHECK(num_tensors <= masks.size(), "the access model prices at most 32 tensors");
    for (int d = 0; d < 3; ++d) extents[static_cast<std::size_t>(d)] = op.extent(d);
    for (std::size_t t = 0; t < num_tensors; ++t) {
      for (int d : op.tensor(static_cast<int>(t)).dims) masks[t] |= 1u << d;
    }
  }

  /// Dataflow::tensor_tile_size of tensor \p t under \p tile.
  Index tile_size(std::size_t t, const std::array<Index, 3>& tile) const {
    Index size = 1;
    for (std::size_t d = 0; d < 3; ++d) {
      if ((masks[t] >> d) & 1u) size *= std::min(tile[d], extents[d]);
    }
    return size;
  }

  /// Dataflow::buffer_footprint: monotone non-decreasing in every tile axis
  /// and independent of the loop order.
  Index footprint(const std::array<Index, 3>& tile) const {
    Index total = 0;
    for (std::size_t t = 0; t < num_tensors; ++t) total += tile_size(t, tile);
    return total;
  }

  /// nest_access() of \p nest; per-tensor accesses land in \p per_tensor.
  AccessCount price(const FlatNest& nest, std::span<AccessCount> per_tensor) const {
    return nest_access(extents, nest.loop_order, nest.tile,
                       std::span(masks).first(num_tensors), per_tensor.first(num_tensors));
  }
};

/// Best dataflow on one side of a resident fusion: minimize MA excluding the
/// intermediate, with the intermediate's full size already reserved.
/// Tie-break is first-wins on strictly-smaller MA alone, so the floor
/// early-exit can stop outright: once best_ma meets the sum of the
/// non-excluded tensor sizes (each is accessed at least once), no later
/// candidate can strictly win.
std::optional<Dataflow> exhaustive_side(const TensorOp& op, BufferSize budget,
                                        int exclude_tensor, int other_a, int other_b,
                                        ExhaustiveMode mode) {
  const bool prune = mode == ExhaustiveMode::kPruned;
  AccessCount floor = 0;
  if (prune) {
    for (int t = 0; t < op.num_tensors(); ++t) {
      if (t != exclude_tensor) floor += op.tensor_size(t);
    }
  }

  const FlatOp flat(op);
  const auto excluded = static_cast<std::size_t>(exclude_tensor);
  std::array<std::vector<Index>, 3> cands;
  for (int d = 0; d < 3; ++d) cands[static_cast<std::size_t>(d)] = tile_candidates(op.extent(d));
  std::optional<FlatNest> best;
  AccessCount best_ma = 0;
  FlatNest nest;
  std::array<AccessCount, kMaxNestDims> per_tensor{};
  // The live footprint (intermediate excluded) is monotone non-decreasing
  // in every tile axis; probing with the remaining axes at their minimum
  // candidate makes each over-budget hit a whole-level break.
  auto side_fp = [&](Index t0, Index t1, Index t2) {
    const std::array<Index, 3> tile = {t0, t1, t2};
    return flat.tile_size(static_cast<std::size_t>(other_a), tile) +
           flat.tile_size(static_cast<std::size_t>(other_b), tile);
  };
  auto at_floor = [&]() { return prune && best && best_ma <= floor; };

  for (const auto& order : kOrders3) {
    if (at_floor()) break;
    nest.loop_order = order;
    for (Index t0 : cands[0]) {
      if (at_floor()) break;
      if (prune && side_fp(t0, cands[1].front(), cands[2].front()) > budget) break;
      for (Index t1 : cands[1]) {
        if (at_floor()) break;
        if (prune && side_fp(t0, t1, cands[2].front()) > budget) break;
        for (Index t2 : cands[2]) {
          if (side_fp(t0, t1, t2) > budget) {
            if (prune) break;  // ascending t2, monotone footprint
            continue;
          }
          nest.tile = {t0, t1, t2};
          const AccessCount ma = flat.price(nest, per_tensor) - per_tensor[excluded];
          if (!best || ma < best_ma) {
            best = nest;
            best_ma = ma;
          }
          if (at_floor()) break;
        }
      }
    }
  }
  if (!best) return std::nullopt;
  // The winner alone goes through the validating model.
  Dataflow df = best->to_dataflow();
  const AccessBreakdown b = evaluate_access(op, df);
  FCU_CHECK(b.total - b.per_tensor[excluded] == best_ma,
            "flat side pricing disagrees with evaluate_access");
  return df;
}

}  // namespace

std::optional<IntraSearchResult> exhaustive_intra(const TensorOp& op, BufferSize bs,
                                                  ExhaustiveMode mode) {
  FCU_CHECK(op.num_dims() == 3, "exhaustive_intra currently targets 3-dim operators");
  ScopedSpan span("exhaustive_intra", FCU_HISTOGRAM("time/exhaustive_intra"));
  const bool prune = mode == ExhaustiveMode::kPruned;
  std::int64_t evaluations = 0;
  std::int64_t visited = 0;  // inner-loop tuples actually reached
  const FlatOp flat(op);
  std::array<std::vector<Index>, 3> cands;
  for (int d = 0; d < 3; ++d) cands[static_cast<std::size_t>(d)] = tile_candidates(op.extent(d));
  const std::int64_t tuples_total = 6 * static_cast<std::int64_t>(cands[0].size()) *
                                    static_cast<std::int64_t>(cands[1].size()) *
                                    static_cast<std::int64_t>(cands[2].size());
  const AccessCount floor = prune ? intra_traffic_lower_bound(op, bs) : 0;

  // The incumbent, kept flat: (total, footprint, tiles, order).
  bool found = false;
  AccessCount best_total = 0;
  Index best_fp = 0;
  FlatNest best;
  FlatNest nest;
  std::array<AccessCount, kMaxNestDims> per_tensor{};
  auto footprint = [&](Index t0, Index t1, Index t2) { return flat.footprint({t0, t1, t2}); };
  const Index fp_min = footprint(cands[0].front(), cands[1].front(), cands[2].front());
  // True once no remaining candidate can have a strictly smaller total; the
  // only way left to win is the footprint tie-break (strict <, first-wins).
  auto at_floor = [&]() { return prune && found && best_total <= floor; };

  for (const auto& order : kOrders3) {
    // Nothing anywhere can beat an incumbent already at the floor *and* at
    // the minimum possible footprint.
    if (at_floor() && best_fp <= fp_min) break;
    nest.loop_order = order;
    for (Index t0 : cands[0]) {
      if (prune) {
        const Index fp0 = footprint(t0, cands[1].front(), cands[2].front());
        if (fp0 > bs) break;  // every (t1, t2) and every later t0 overflows
        if (at_floor() && fp0 >= best_fp) break;
      }
      for (Index t1 : cands[1]) {
        if (prune) {
          const Index fp1 = footprint(t0, t1, cands[2].front());
          if (fp1 > bs) break;
          if (at_floor() && fp1 >= best_fp) break;
        }
        for (Index t2 : cands[2]) {
          ++visited;
          const Index fp = footprint(t0, t1, t2);
          if (fp > bs) {
            if (prune) break;
            continue;
          }
          // At the floor a candidate can only win the footprint tie-break;
          // fp is monotone in t2, so the first non-improving footprint ends
          // the level.
          if (at_floor() && fp >= best_fp) break;
          ++evaluations;
          nest.tile = {t0, t1, t2};
          const AccessCount total = flat.price(nest, per_tensor);
          if (!found || total < best_total || (total == best_total && fp < best_fp)) {
            found = true;
            best_total = total;
            best_fp = fp;
            best = nest;
          }
        }
      }
    }
  }
  FCU_COUNTER("search/exhaustive_intra/calls").add();
  FCU_COUNTER("search/exhaustive_intra/evaluations").add(evaluations);
  if (prune) FCU_COUNTER("search/exhaustive_pruned_evals").add(tuples_total - visited);
  const double elapsed = span.elapsed_seconds();
  if (elapsed > 0.0) {
    FCU_GAUGE("search/exhaustive_intra/evaluations_per_sec")
        .set(static_cast<double>(evaluations) / elapsed);
  }
  if (!found) return std::nullopt;
  // The winner alone goes through the validating model.
  IntraSearchResult result{best.to_dataflow(), {}};
  result.access = evaluate_access(op, result.dataflow);
  FCU_CHECK(result.access.total == best_total && result.access.buffer_footprint == best_fp,
            "flat oracle pricing disagrees with evaluate_access");
  return result;
}

std::optional<FusedSearchResult> exhaustive_fused(const FusedPair& pair, BufferSize bs,
                                                  ExhaustiveMode mode) {
  ScopedSpan span("exhaustive_fused", FCU_HISTOGRAM("time/exhaustive_fused"));
  const bool prune = mode == ExhaustiveMode::kPruned;
  std::int64_t evaluations = 0;
  std::int64_t visited = 0;
  std::optional<FusedSearchResult> best;
  // Every external tensor is read/written at least once by any fused
  // dataflow, phased or resident, so ideal_min_access is admissible for the
  // whole family and the tie-break is first-wins on strictly-smaller total.
  const AccessCount floor = prune ? pair.ideal_min_access() : 0;

  const std::vector<Index> cm = tile_candidates(pair.m());
  const std::vector<Index> ck = tile_candidates(pair.k());
  const std::vector<Index> cl = tile_candidates(pair.l());
  const std::vector<Index> cn = tile_candidates(pair.n());
  const std::int64_t tuples_total = 2 * static_cast<std::int64_t>(cm.size()) *
                                    static_cast<std::int64_t>(ck.size()) *
                                    static_cast<std::int64_t>(cl.size()) *
                                    static_cast<std::int64_t>(cn.size());

  // The phased live set (evaluate_phased's buffer_footprint), monotone
  // non-decreasing in every tile axis.
  auto phased_fp = [](Index t_m, Index t_k, Index t_l, Index t_n) {
    return t_m * t_k + t_k * t_l + t_m * t_l + t_l * t_n + t_m * t_n;
  };
  auto at_floor = [&]() { return prune && best && best->access.total <= floor; };
  auto finish = [&]() {
    FCU_COUNTER("search/exhaustive_fused/calls").add();
    FCU_COUNTER("search/exhaustive_fused/evaluations").add(evaluations);
    if (prune) FCU_COUNTER("search/exhaustive_pruned_evals").add(tuples_total - visited);
  };

  PhasedFusedDataflow df;
  for (bool l_outer : {false, true}) {
    if (at_floor()) break;
    df.l_outer = l_outer;
    for (Index t_m : cm) {
      if (at_floor()) break;
      if (prune && phased_fp(t_m, ck.front(), cl.front(), cn.front()) > bs) break;
      for (Index t_k : ck) {
        if (at_floor()) break;
        if (prune && phased_fp(t_m, t_k, cl.front(), cn.front()) > bs) break;
        for (Index t_l : cl) {
          if (at_floor()) break;
          // Footprint is monotone in t_n; prune before the inner loop.
          if (phased_fp(t_m, t_k, t_l, cn.front()) > bs) {
            if (prune) break;  // ascending t_l, monotone footprint
            continue;
          }
          for (Index t_n : cn) {
            ++visited;
            df.t_m = t_m;
            df.t_k = t_k;
            df.t_l = t_l;
            df.t_n = t_n;
            if (prune && phased_fp(t_m, t_k, t_l, t_n) > bs) break;  // t_n ascending
            ++evaluations;
            FusedAccess a = evaluate_phased(pair, df);
            if (a.buffer_footprint > bs) break;  // t_n ascending (kFull path)
            if (!best || a.total < best->access.total) {
              best = FusedSearchResult{df, std::nullopt, a};
            }
            if (at_floor()) break;
          }
        }
      }
    }
  }

  // The resident family can no longer *strictly* beat an incumbent at the
  // floor, and the phased family is enumerated first, so first-wins holds.
  if (at_floor()) {
    finish();
    return best;
  }

  const BufferSize residual = bs - pair.intermediate_size();
  if (residual >= 2) {
    std::optional<Dataflow> df1 =
        exhaustive_side(pair.op1(), residual, mm::kTensorC, mm::kTensorA, mm::kTensorB, mode);
    std::optional<Dataflow> df2 = exhaustive_side(pair.op2(), residual, 0, 1, 2, mode);
    if (df1 && df2) {
      ResidentFusedDataflow rf{*df1, *df2};
      FusedAccess a = evaluate_resident(pair, rf);
      if (a.buffer_footprint <= bs && (!best || a.total < best->access.total)) {
        best = FusedSearchResult{std::nullopt, rf, a};
      }
    }
  }
  finish();
  return best;
}

}  // namespace fusecu
