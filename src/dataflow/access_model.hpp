#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/math_util.hpp"
#include "dataflow/dataflow.hpp"

/// \file access_model.hpp
/// Reuse-based memory-access (MA) evaluator — the shared cost model.
///
/// For a loop nest ordered outermost-first with per-dimension tile sizes, a
/// tensor indexed by dimension set S is re-fetched on every iteration of any
/// loop d NOT in S that has at least one *effective* (trip count > 1) loop
/// from S nested inside it — because that inner loop changes the tensor's
/// tile within d's body, destroying reuse.  Hence
///
///   MA(tensor) = |tensor| * prod{ trips(d) : d not in S,
///                                 exists d' in S inner to d, trips(d') > 1 }
///
/// Untiled dimensions (T = D) have trip count 1 and drop out of the nest,
/// which is exactly the paper's "removing the loop over dimension K" in the
/// Two-NRA derivation.  The output tensor is charged identically: when its
/// reduction loop is outside its reuse scope, partial sums spill and each
/// visit counts — matching the accounting of Eq. 1 and Eq. 3.
///
/// This one function scores every dataflow in the design space; the
/// principle optimizer, the DAT-like search baseline, and the architecture
/// evaluator all call it, so comparisons between them are apples-to-apples.

namespace fusecu {

/// Per-tensor and total access counts for one (op, dataflow) pair.
struct AccessBreakdown {
  std::vector<AccessCount> per_tensor;  ///< indexed like op.tensors()
  AccessCount total = 0;
  Index buffer_footprint = 0;  ///< elements the dataflow keeps live

  /// How many tensors are accessed exactly once (|accesses| == |tensor|)?
  /// This is the paper's NRA count: 1 -> Single-NRA, 2 -> Two-NRA,
  /// 3 -> Three-NRA.
  int non_redundant_tensors(const TensorOp& op) const;
};

/// Evaluate memory accesses for \p df on \p op.  Validates the dataflow.
AccessBreakdown evaluate_access(const TensorOp& op, const Dataflow& df);

/// Widest nest nest_access() prices: dimension masks are 32-bit.
inline constexpr int kMaxNestDims = 32;

/// Allocation-free core of evaluate_access(), for callers that hold the nest
/// in flat form: per-dimension \p extents and \p tiles, the \p loop_order
/// (outermost first) and one mask per tensor with bit d set when dimension d
/// indexes it.  Writes each tensor's accesses to \p per_tensor (one slot per
/// mask) and returns their sum.  The nest is trusted: evaluate_access()
/// validates it first, and the principle optimizers build theirs valid by
/// construction.
inline AccessCount nest_access(std::span<const Index> extents, std::span<const int> loop_order,
                               std::span<const Index> tiles,
                               std::span<const std::uint32_t> dim_masks,
                               std::span<AccessCount> per_tensor) {
  const std::size_t n = loop_order.size();
  std::uint32_t effective = 0;  // dims whose tile loop runs more than once
  for (std::size_t d = 0; d < n; ++d) {
    if (tiles[d] < extents[d]) effective |= 1u << d;
  }

  AccessCount total = 0;
  for (std::size_t t = 0; t < dim_masks.size(); ++t) {
    const std::uint32_t mask = dim_masks[t];
    AccessCount accesses = 1;
    for (std::size_t d = 0; d < n; ++d) {
      if ((mask >> d) & 1u) accesses *= extents[d];
    }
    // An outer loop d (not indexing the tensor) multiplies accesses iff some
    // effective loop of the tensor's dimension set sits inside it: every
    // effective foreign loop outside the tensor's innermost effective loop.
    std::size_t inner = n;
    while (inner > 0 && !(mask & effective & (1u << loop_order[inner - 1]))) --inner;
    for (std::size_t pos = 0; pos + 1 < inner; ++pos) {
      const int d = loop_order[pos];
      if (effective & ~mask & (1u << d)) {
        const auto sd = static_cast<std::size_t>(d);
        accesses *= ceil_div(extents[sd], tiles[sd]);
      }
    }
    per_tensor[t] = accesses;
    total += accesses;
  }
  return total;
}

/// True when the dataflow's live tiles fit into \p buffer_size elements.
bool fits_buffer(const TensorOp& op, const Dataflow& df, BufferSize buffer_size);

/// The paper's NRA regimes (Sec. III-A).
enum class NraKind {
  kSingle = 1,  ///< one tensor non-redundant (the stationary one)
  kTwo = 2,     ///< two tensors non-redundant
  kThree = 3,   ///< all tensors accessed exactly once: the lower bound
};

/// Classify a dataflow by its realized non-redundant-access count.
NraKind classify_nra(const TensorOp& op, const Dataflow& df);

/// Sound communication floor for (op, bs): no valid dataflow in the access
/// model can move fewer elements.  max(ideal once-each access, the
/// projective-loop tiling bound 2*M*K*L/sqrt(BS) of Dinh & Demmel).  Both
/// the conformance floor checks and the pruned exhaustive search's
/// early-exit use this bound — it is *admissible*: never above the true
/// optimum, so stopping at it cannot skip a better plan.
AccessCount intra_traffic_lower_bound(const TensorOp& op, BufferSize bs);

/// Index of the stationary tensor: accessed exactly once while at least one
/// other tensor is redundant; -1 when no tensor qualifies (e.g. Three-NRA
/// where everything is accessed once, or degenerate nests).
int stationary_tensor(const TensorOp& op, const Dataflow& df);

const char* to_string(NraKind kind);

}  // namespace fusecu
