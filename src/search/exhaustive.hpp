#pragma once

#include <optional>

#include "fusion/fused_pair.hpp"

/// \file exhaustive.hpp
/// Brute-force searching-based DSE over the full tiling & scheduling space.
///
/// This is the ground-truth oracle the property tests hold the principles
/// against: for an intra-op dataflow it enumerates all 6 loop orders and all
/// tile-size combinations drawn from divisors plus the power-of-two ladder;
/// for a fused pair it enumerates both shared loop orders, the 4-dimensional
/// tile cross-product, and the decoupled resident-intermediate family.
/// Exhaustive search is exponential in operator count — exactly the
/// scalability problem (Sec. I) the principles remove.
///
/// Pruning (kPruned, the default) keeps the oracle exact while skipping
/// most of the grid:
///
///  * **footprint-monotone breaks** — every candidate list is ascending and
///    every footprint is monotone non-decreasing in each tile axis, so the
///    first over-budget tuple at any loop level ends that level (probed
///    with the remaining axes at their minimum candidates);
///  * **admissible floor early-exit** — intra_traffic_lower_bound (Dinh &
///    Demmel) never exceeds the true optimum, so once the incumbent meets
///    it no later candidate can be *strictly* better; remaining candidates
///    are visited only if they could still win the footprint tie-break
///    (intra), or not at all (fused/side, whose tie-break is first-wins on
///    the primary key alone).
///
/// Both rules only skip candidates that provably cannot change the argmin
/// under the exact iteration order, so kPruned returns byte-identical plans
/// to kFull (enforced by tests/search_prune_test.cpp).  Skipped tuples are
/// counted in the "search/exhaustive_pruned_evals" metric.
///
/// Pricing is flat in both modes: the intra search and the resident side
/// searches hold the operator as stack arrays (extents, one dimension mask
/// per tensor from op.tensor(t).dims) and price each candidate order and
/// tile tuple with nest_access(), building no Dataflow.  Only the winner
/// becomes a Dataflow; it is validated and priced again through
/// evaluate_access(), which must agree with the flat total (and footprint).

namespace fusecu {

/// Search strategy knob: kFull is the naive reference enumeration, kPruned
/// the production oracle (identical results, provably).
enum class ExhaustiveMode {
  kPruned,
  kFull,
};

/// An intra-operator search outcome.
struct IntraSearchResult {
  Dataflow dataflow;
  AccessBreakdown access;
};

/// Best dataflow for (op, bs) over the full space; nullopt when nothing fits
/// the buffer.
std::optional<IntraSearchResult> exhaustive_intra(const TensorOp& op, BufferSize bs,
                                                  ExhaustiveMode mode = ExhaustiveMode::kPruned);

/// A fused-pair search outcome.
struct FusedSearchResult {
  std::optional<PhasedFusedDataflow> phased;
  std::optional<ResidentFusedDataflow> resident;
  FusedAccess access;
};

/// Best fused dataflow over phased x orders x tiles plus the resident
/// family; nullopt when no fused configuration fits.
std::optional<FusedSearchResult> exhaustive_fused(const FusedPair& pair, BufferSize bs,
                                                  ExhaustiveMode mode = ExhaustiveMode::kPruned);

}  // namespace fusecu
