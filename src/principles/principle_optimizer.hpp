#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dataflow/access_model.hpp"
#include "principles/buffer_class.hpp"
#include "principles/two_tile_probe.hpp"

/// \file principle_optimizer.hpp
/// One-shot analytical dataflow optimization — Principles 1-3 (Sec. III-A).
///
/// Unlike searching-based DSE (src/search), every candidate dataflow here is
/// *constructed* in closed form:
///
///   Principle 1 (Single-NRA): pick a stationary tensor; maximize its two
///     tile dimensions symmetrically under T^2 + 2T <= BS; unit-tile the
///     third dimension; prefer the smallest tensor as stationary.
///   Principle 2 (Two-NRA): pick an untiled dimension U and a maximized
///     dimension O; T_O = (BS - D_U) / (D_U + 1); unit-tile the third;
///     prefer the smallest dimension as U.
///   Principle 3 (Three-NRA): keep the smallest tensor fully resident; the
///     remaining tile size does not affect MA.
///
/// optimize_intra() constructs the constant-size candidate set across all
/// regimes, keeps the feasible ones, and returns the minimum-MA dataflow —
/// the communication lower bound for the operator under the buffer size.
/// It prices a Principle 1 family only while the family's admissible floor
/// can still beat or tie the best construction so far.
/// These constructors are public so tests can verify each principle against
/// exhaustive search independently.
///
/// The constructors currently target matmul-shaped operators (three loop
/// dimensions, three tensors indexed by the three dimension pairs); the cost
/// model underneath is rank-agnostic.

namespace fusecu {

/// Result of principle-based intra-operator optimization.
struct IntraOptResult {
  Dataflow dataflow;
  AccessBreakdown access;
  NraKind nra = NraKind::kSingle;
  BufferClass buffer_class = BufferClass::kTiny;
  /// Which closed-form construction produced the winner (for diagnostics).
  std::string rule;
};

/// A matmul-shaped operator read into fixed-size arrays: all the closed
/// forms read of it, so they never walk a TensorOp's vectors.
struct MatmulShape {
  std::array<Index, 3> extent{};
  std::array<std::uint32_t, 3> mask{};       ///< per tensor: bit d set when dim d indexes it
  std::array<std::array<int, 2>, 3> dims{};  ///< per tensor, in declared order
  std::array<int, 3> other{};                ///< per tensor: the dim it omits
  std::array<Index, 3> size{};               ///< per tensor element count
};

/// \p op's shape.  Throws std::invalid_argument unless \p op is
/// matmul-shaped.
MatmulShape flatten_matmul(const TensorOp& op);

/// The shape of TensorOp::matmul(name, m, k, l): A{M,K}, B{K,L}, C{M,L}.
/// The extents are trusted to be positive.
MatmulShape matmul_shape(Index m, Index k, Index l);

/// classify_buffer() of the op \p shape describes.
BufferClass classify_buffer(const MatmulShape& shape, BufferSize bs);

/// The names a matmul's plan is reported in: its dimension and tensor names
/// in declared order, and its name for error messages, spelled name +
/// name_suffix so that a batch-folded request's "<id>.folded" needs no
/// string of its own.  Views: the caller keeps the text alive.
struct MatmulLabels {
  std::array<std::string_view, 3> dims{"M", "K", "L"};
  std::array<std::string_view, 3> tensors{"A", "B", "C"};
  std::string_view name;
  std::string_view name_suffix;
};

/// Views of \p op's names, which must outlive the labels.
MatmulLabels labels_of(const TensorOp& op);

/// The closed-form construction behind a plan: its Principle (the regime it
/// targets) and arguments.  Principles 1 and 3 name a tensor in arg0;
/// Principle 2 names the untiled dim in arg0 and the maximized dim in arg1.
struct IntraRule {
  NraKind family = NraKind::kSingle;
  int arg0 = -1;
  int arg1 = -1;
};

/// A rule's text ("P1(stationary=A)", "P2(untile=K,max=M)",
/// "P3(resident=C)") as the views it concatenates: literals and labels.
struct RuleText {
  std::array<std::string_view, 5> pieces;

  std::size_t size() const;
  std::string str() const;
};

/// \p rule spelled in \p labels.
RuleText rule_text(const IntraRule& rule, const MatmulLabels& labels);

/// One intra-operator plan in one fixed-size record: everything
/// optimize_intra() reports, with the rule as its family and arguments.
/// The closed form produces it; optimize_intra() materializes it as an
/// IntraOptResult; the plan cache stores it as it is.
struct IntraPlanRecord {
  std::array<int, 3> loop_order{};
  std::array<Index, 3> tile{1, 1, 1};
  std::array<AccessCount, 3> per_tensor{};
  AccessCount total = 0;
  Index footprint = 0;
  NraKind nra = NraKind::kSingle;
  BufferClass buffer_class = BufferClass::kTiny;
  IntraRule rule;
};

/// The core of optimize_intra(): the same closed form, timer, span and
/// counters, from a flat shape.  \p labels name the operator in the span
/// note and in the error thrown when \p bs cannot hold the minimal working
/// set.
IntraPlanRecord optimize_intra_record(const MatmulShape& shape, BufferSize bs,
                                      const MatmulLabels& labels);

/// The IntraOptResult a record stands for, its rule spelled in \p labels.
IntraOptResult materialize(const IntraPlanRecord& record, const MatmulLabels& labels);

/// A constructed candidate: a principled dataflow plus provenance.
struct PrincipleCandidate {
  Dataflow dataflow;
  NraKind intended = NraKind::kSingle;
  std::string rule;
};

/// Throws std::invalid_argument unless \p op is matmul-shaped.
void require_matmul_shape(const TensorOp& op);

/// Principle 1 construction for a chosen stationary tensor.  Returns every
/// integer refinement the closed form admits (a handful of candidates);
/// empty when no tiling fits the buffer.
std::vector<PrincipleCandidate> make_single_nra(const TensorOp& op, BufferSize bs,
                                                int stationary_tensor);

/// Principle 2 construction for a chosen untiled dimension \p untiled_dim
/// and maximized dimension \p maximized_dim (must differ).  nullopt when the
/// untiled dimension alone exceeds the buffer.
std::optional<PrincipleCandidate> make_two_nra(const TensorOp& op, BufferSize bs, int untiled_dim,
                                               int maximized_dim);

/// Principle 3 construction keeping tensor \p resident_tensor fully
/// buffered.  nullopt when the tensor plus one row/column of the others
/// exceeds the buffer.
std::optional<PrincipleCandidate> make_three_nra(const TensorOp& op, BufferSize bs,
                                                 int resident_tensor);

/// All principled candidates for (op, bs), across the three regimes and all
/// stationary/untiled choices, in the order optimize_intra() ranks them — a
/// constant-size set: at most 34 Principle 1 refinements per stationary
/// tensor (see two_tile_candidates) plus 6 Principle 2 and 3 Principle 3
/// constructions, so at most 111 entries.
std::vector<PrincipleCandidate> principle_candidates(const TensorOp& op, BufferSize bs);

/// One-shot optimal intra-operator dataflow: the argmin of
/// principle_candidates() by total MA, then footprint, then first.  A
/// Principle 1 family whose admissible floor lies strictly above the best
/// construction already priced is skipped unpriced; the plan is the same.
/// Throws
/// std::invalid_argument when the buffer cannot hold even the minimal
/// working set (one element of each tensor, i.e. bs < 3 for matmul).
/// A pure function of (op, bs): flatten, optimize_intra_record(),
/// materialize().  The serving layer calls the record core on a cache miss.
IntraOptResult optimize_intra(const TensorOp& op, BufferSize bs);

/// The NRA regime of optimize_intra(op, bs)'s plan, from the closed form
/// alone: no timer, span or counter.  Other optimizers use it to tag their
/// results without counting an optimize_intra() call.
NraKind optimal_regime(const TensorOp& op, BufferSize bs);

/// The same from a flat shape; \p labels name the operator in the error.
NraKind optimal_regime(const MatmulShape& shape, BufferSize bs, const MatmulLabels& labels);

/// The distinct pairs of for_each_two_tile_probe(e1, e2, w1, w2, c1, c2,
/// bs) (two_tile_probe.hpp), ascending: the closed-form two-tile
/// maximization shared by Principle 1 and the fused tile-fusion
/// construction, as a set (at most 34 pairs), not a search.  Only the
/// reference candidate sets and the tests collect pairs; the optimizers
/// price each probe as it is made.
std::vector<std::pair<Index, Index>> two_tile_candidates(Index e1, Index e2, double w1,
                                                         double w2, Index c1, Index c2,
                                                         BufferSize bs);

/// Whether an admissible floor, shaded down by a relative 1e-9 against
/// floating-point error, lies strictly above \p incumbent: only then can
/// nothing at or above the floor beat or tie the incumbent.
bool floor_exceeds(double floor, AccessCount incumbent);

namespace detail {

/// The floor optimize_intra() prunes Principle 1 by: no candidate of
/// make_single_nra(op, bs, stationary_tensor) prices below it.  Exposed for
/// the soundness tests.
double single_nra_floor(const TensorOp& op, BufferSize bs, int stationary_tensor);

/// Per-tensor MA of make_single_nra(op, bs, stationary_tensor)'s
/// construction with tiles \p t1 and \p t2 on the tensor's dims (in their
/// declared order), priced from the trip counts alone as optimize_intra()
/// prices each probe.  Exposed for the differential tests.
std::array<AccessCount, 3> single_nra_probe_access(const TensorOp& op, int stationary_tensor,
                                                   Index t1, Index t2);

}  // namespace detail

/// Closed-form MA expressions from the paper, used by tests to pin the cost
/// model to Eq. 1 and Eq. 3.
///   Eq. 1: MA = MKL * (1/T_L + 1/T_M) + ML        (output stationary)
///   Eq. 3: MA = MKL * (1/T_M) + MK + ML           (K untiled, T_L = 1)
AccessCount eq1_output_stationary_access(Index m, Index k, Index l, Index t_m, Index t_l);
AccessCount eq3_two_nra_access(Index m, Index k, Index l, Index t_m);

}  // namespace fusecu
