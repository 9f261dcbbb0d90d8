#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fusion/fused_pair.hpp"
#include "principles/principle_optimizer.hpp"

/// \file fusion_principles.hpp
/// Principle 4 and the one-shot fused-dataflow optimizer (Sec. III-B).
///
/// Principle 4: *only fuse tensor operators with the same NRA dataflow.*
/// Operators in the same regime share consistent tiling principles, so the
/// shared intermediate's tiling does not disturb either operator's optimum;
/// cross-regime fusion forces a compromise tile that inflates the dominant
/// redundant terms by more than the intermediate saving.
///
/// The fused candidate constructions mirror Fig. 4's profitable patterns:
///  * Single-NRA tile fusion (Fig. 4a): C stationary in both ops (OS -> IS);
///    T_M = T_L = T with T^2 + 4T <= BS.
///  * Two-NRA fusion (Fig. 4b/c): untile L (or the mirrored M), or untile
///    K and N; maximize the remaining free tile in closed form.
///  * Three-NRA fusion (Fig. 4d/e): untile a dimension of C with everything
///    resident, or keep C entirely on-chip and optimize each op freely.

namespace fusecu {

/// One principled fused candidate: exactly one of phased/resident is set.
struct FusedCandidate {
  std::optional<PhasedFusedDataflow> phased;
  std::optional<ResidentFusedDataflow> resident;
  std::string rule;
};

/// Result of fused-pair optimization.
struct FusedOptResult {
  FusedAccess access;
  FusedCandidate chosen;
  NraKind regime1 = NraKind::kSingle;  ///< producer's intra-op regime at BS
  NraKind regime2 = NraKind::kSingle;  ///< consumer's intra-op regime at BS
};

/// One fused-pair plan in one fixed-size record: the chosen phased or
/// resident configuration, its access totals, its rule and both regime
/// tags.  The closed form produces it; optimize_fused_pair() materializes it
/// as a FusedOptResult; the plan cache stores it as it is.
struct FusedPlanRecord {
  bool resident = false;
  PhasedFusedDataflow phased;  ///< the configuration when !resident
  FlatNest side1, side2;       ///< op1's and op2's nests when resident
  FusedAccess access;
  /// "F3(resident-C)" or "F-phased(K=...,N=...)": a view of a string
  /// literal, so the record stays valid wherever it is copied.
  std::string_view rule;
  NraKind regime1 = NraKind::kSingle;
  NraKind regime2 = NraKind::kSingle;
};

/// Whether the two ops land in the same NRA regime at this buffer size —
/// Principle 4's fusability-and-profitability predicate.
bool same_nra_regime(const FusedPair& pair, BufferSize bs);

/// All principled fused candidates for (pair, bs), each distinct
/// construction once, in the order optimize_fused_pair() breaks ties by;
/// constant-size set.
std::vector<FusedCandidate> fused_principle_candidates(const FusedPair& pair, BufferSize bs);

/// Best fused dataflow by construction: the first candidate of least total
/// among fused_principle_candidates() that fit.  A corner's two-tile sweep
/// whose admissible floor lies strictly above the best construction already
/// priced is skipped unpriced; the plan is the same.  nullopt when no
/// candidate fits the buffer (e.g. BS too small to co-locate both ops'
/// minimal tiles).  A pure function of (pair, bs); the serving layer calls
/// it on a cache miss.  Flattens nothing: optimize_fused_record(), then
/// materialize().
std::optional<FusedOptResult> optimize_fused_pair(const FusedPair& pair, BufferSize bs);

/// The core of optimize_fused_pair(): the same closed form, timer, span and
/// counters, and a record in place of the result.  The serving layer calls
/// it on a cache miss.
std::optional<FusedPlanRecord> optimize_fused_record(const FusedPair& pair, BufferSize bs);

/// The FusedOptResult a record stands for.
FusedOptResult materialize(const FusedPlanRecord& record);

namespace detail {

/// The floor optimize_fused_pair() prunes the phased corner (\p t_k,
/// \p t_n) by, T_K in {1, K} and T_N in {1, N}: no phased candidate of that
/// corner prices below it.  Exposed for the soundness tests.
double phased_corner_floor(const FusedPair& pair, BufferSize bs, Index t_k, Index t_n);

/// The (M outer, L outer) totals of \p df's tiles, priced from the trip
/// counts alone as optimize_fused_pair() prices each probe.  Exposed for the
/// differential tests.
std::array<AccessCount, 2> phased_probe_totals(const FusedPair& pair,
                                               const PhasedFusedDataflow& df);

}  // namespace detail

/// The fuse-or-not decision for a pair, comparing the best fused dataflow
/// against independently optimized unfused ops (which pay the intermediate's
/// store + load).
struct FusionDecision {
  bool fusable = false;          ///< some fused dataflow fits the buffer
  bool profitable = false;       ///< fused MA < unfused MA
  bool principle4_predicts = false;  ///< regimes match (Principle 4)
  AccessCount fused_ma = 0;      ///< best fused MA (valid when fusable)
  AccessCount unfused_ma = 0;    ///< sum of intra-op optima incl. intermediate
  std::optional<FusedOptResult> fused;
};

FusionDecision decide_fusion(const FusedPair& pair, BufferSize bs);

/// Unfused reference cost: each op independently principle-optimized; the
/// intermediate is stored by op1 and loaded by op2 (already inside the two
/// intra-op totals).
AccessCount unfused_pair_access(const FusedPair& pair, BufferSize bs);

}  // namespace fusecu
