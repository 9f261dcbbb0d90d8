#pragma once

#include <optional>
#include <string>

#include "dataflow/access_model.hpp"
#include "fusion/fused_pair.hpp"
#include "fusion/graph_planner.hpp"  // is_matmul_shaped
#include "serve/plan_request.hpp"

/// \file canonical.hpp
/// Workload canonicalization for the plan cache (src/serve).
///
/// Plans produced by the principle optimizer are pure functions of the
/// operator's *access structure* and the buffer size — not of the operator
/// name, and not of the whole (shape, buffer) product space.  The
/// canonicalizer exploits exactly the equivalences that are provably sound
/// for byte-identical plan reuse (see DESIGN.md "Canonicalization
/// soundness"):
///
///  1. **Operator name**: optimize_intra never reads it.  Dimension and
///     tensor names DO appear in the winning rule string ("P1(stationary=A)")
///     and therefore stay in the key.
///  2. **Transpose class**: matmul(m,k,l) and matmul(l,k,m) under the same
///     labels describe isomorphic access structures, so both map to one key
///     built from the sorted free extents (min(m,l), k, max(m,l)) plus the
///     shared labels.  The optimizer is *not* guaranteed
///     transpose-equivariant (candidate enumeration and tie-breaks are
///     orientation-sensitive), so the cache entry keeps one plan slot per
///     orientation instead of transforming plans across orientations —
///     byte-identical reuse without an equivariance assumption.
///  3. **Buffer saturation**: for bs >= m*k + k*l + m*l every tensor fits
///     simultaneously and the plan is constant in bs, so the key clamps the
///     buffer to that full-fit point.  Below it, distinct buffer sizes keep
///     distinct keys.
///
/// Distinct workloads never share a key: every extent, every dimension and
/// tensor name, and the (clamped) buffer size are all spelled into the key
/// text with unambiguous separators.
///
/// Keys are spelled either from a TensorOp / FusedPair (the typed API) or
/// straight from a wire request's fields (the request core, which then never
/// builds the operator on a hit).  Both spellings share one appender and
/// produce the same text, so typed and wire requests share cache entries.

namespace fusecu {

/// Canonical cache key for one intra-operator planning request.
struct CanonicalIntraKey {
  std::string text;      ///< the cache key (shared by the transpose class)
  bool swapped = false;  ///< orientation slot: false = m <= l, true = m > l
};

/// Buffer size with the saturation clamp applied: min(bs, m*k + k*l + m*l).
BufferSize clamp_buffer_for_intra(const TensorOp& op, BufferSize bs);

/// Canonical key for optimize_intra(op, bs).  Throws std::invalid_argument
/// when \p op is not matmul-shaped; use try_canonical_intra_key from
/// never-throw contexts.
CanonicalIntraKey canonical_intra_key(const TensorOp& op, BufferSize bs);

/// Non-throwing variant: nullopt when \p op is out of scope for the cache.
std::optional<CanonicalIntraKey> try_canonical_intra_key(const TensorOp& op, BufferSize bs);

/// Canonical key for optimize_fused_pair(pair, bs).  Fused construction is
/// asymmetric in all four extents, so the key is exact (no transpose class,
/// no buffer clamp) — it still folds the request-level equivalences (operator
/// names) away by spelling only extents and operand names.
std::string canonical_fused_key(const FusedPair& pair, BufferSize bs);

/// The request's key, spelled from its fields without building the operator:
/// for a matmul, try_canonical_intra_key(request.to_op(), buffer_elems) with
/// the orientation in \p swapped (batch folded into M, as to_op() folds
/// it); for a fused pair, canonical_fused_key(request.to_pair(),
/// buffer_elems) with \p swapped false.  \p key is cleared and reserved to
/// kMaxRequestKeyBytes, which no key exceeds, so a string reused across
/// requests allocates at most once.  Returns false, with \p key empty, when
/// the request is out of scope for the cache: an extent below 1, or a
/// matmul buffer below the minimal working set; to_op() / to_pair() or the
/// optimizer then reports the error.
bool spell_request_key(const PlanRequest& request, std::string& key, bool& swapped);

/// Upper bound on a spell_request_key() text: a fused key of four 19-digit
/// extents and a 19-digit buffer is 151 bytes.
constexpr std::size_t kMaxRequestKeyBytes = 160;

}  // namespace fusecu
