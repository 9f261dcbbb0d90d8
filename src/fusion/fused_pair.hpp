#pragma once

#include <array>
#include <optional>
#include <string>

#include "dataflow/access_model.hpp"
#include "tensor/op_graph.hpp"

/// \file fused_pair.hpp
/// Two matrix multiplications fused through their intermediate (Sec. III-B).
///
///   op1: A(M,K) x B(K,L) = C(M,L)
///   op2: C(M,L) x D(L,N) = E(M,N)
///
/// When fused, C never reaches memory.  Two execution structures cover all
/// of the paper's profitable fused dataflow (Fig. 4):
///
/// * **Phased** — shared tile loops over (M, L); inside each (m, l) tile the
///   K loop completes a C tile (producer phase), then the N loop consumes it
///   (consumer phase).  Setting T_K = K, T_L = L, etc. recovers the
///   OS-IS (Fig. 4a), untile-L (Fig. 4c) and untile-dim Three-NRA (Fig. 4d)
///   patterns.  Buffer: all five tiles are charged simultaneously — tiles of
///   A/B with untiled reuse dimensions survive across consumer phases, so
///   the conservative sum is the safe footprint.
/// * **Resident** — the whole of C is buffered (Fig. 4e).  op1 then op2 run
///   sequentially with independent dataflow; the footprint is |C| plus the
///   larger of the two ops' remaining working sets.
///
/// MA accounting reuses the intra-op reuse model: each op is priced by
/// evaluate_access on its own 3-level nest and the intermediate's
/// contribution is dropped.

namespace fusecu {

/// A normalized fused matmul pair.
class FusedPair {
 public:
  /// Build from explicit dimension extents.
  static FusedPair make(Index m, Index k, Index l, Index n);

  /// Extract from two ops in a graph sharing one tensor: op1's output must
  /// be op2's first input with matching (M, L) extents.  Throws when the
  /// ops do not form the canonical fusable shape.
  static FusedPair from_ops(const TensorOp& op1, const TensorOp& op2);

  /// The two ops, built on each call: a pair holds only its four extents,
  /// and the closed forms read those.  Hoist an op out of a loop.
  TensorOp op1() const;
  TensorOp op2() const;
  /// op1's extents over its dims (M, K, L) and op2's over its (M, L, N).
  std::array<Index, 3> op1_extents() const { return {m_, k_, l_}; }
  std::array<Index, 3> op2_extents() const { return {m_, l_, n_}; }
  Index m() const { return m_; }
  Index k() const { return k_; }
  Index l() const { return l_; }
  Index n() const { return n_; }

  /// Elements of the intermediate C — what fusion saves twice (store+load).
  Index intermediate_size() const { return m_ * l_; }

  /// Ideal minimum MA of the fused pair: A + B + D + E each once.
  AccessCount ideal_min_access() const;

 private:
  FusedPair(Index m, Index k, Index l, Index n) : m_(m), k_(k), l_(l), n_(n) {}
  Index m_, k_, l_, n_;
};

/// Shared-tile phased fusion configuration.
struct PhasedFusedDataflow {
  Index t_m = 1;  ///< shared tile of M (C rows)
  Index t_k = 1;  ///< op1 reduction tile
  Index t_l = 1;  ///< shared tile of L (C columns / op2 reduction)
  Index t_n = 1;  ///< op2 free-dimension tile
  bool l_outer = false;  ///< loop order over C tiles: false = (M, L), true = (L, M)

  std::string to_string() const;
};

/// Fully-resident-intermediate fusion configuration (Fig. 4e).
struct ResidentFusedDataflow {
  Dataflow df1;  ///< op1 dataflow (C's footprint overridden to |C|)
  Dataflow df2;  ///< op2 dataflow (likewise)
};

/// One op's three-loop nest held inline: loop order (outermost first) and
/// per-dimension tiles over that op's dimensions.  The fused optimizer
/// builds and prices these without allocating.
struct FlatNest {
  std::array<int, 3> loop_order{};
  std::array<Index, 3> tile{1, 1, 1};

  Dataflow to_dataflow() const;
};

/// MA/footprint result for a fused configuration.
struct FusedAccess {
  AccessCount op1_external = 0;  ///< A + B accesses
  AccessCount op2_external = 0;  ///< D + E accesses
  AccessCount total = 0;         ///< op1_external + op2_external
  Index buffer_footprint = 0;
};

/// Price a phased configuration.  Validates tile ranges.
FusedAccess evaluate_phased(const FusedPair& pair, const PhasedFusedDataflow& df);

/// Price a resident configuration.  Validates both dataflows against the
/// pair's extents.
FusedAccess evaluate_resident(const FusedPair& pair, const ResidentFusedDataflow& df);

/// The same pricing for nests given inline; trusted (tiles within extents).
FusedAccess evaluate_resident(const FusedPair& pair, const FlatNest& side1, const FlatNest& side2);

}  // namespace fusecu
