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
///  2. **Orientation**: the key spells (m, k, l) as the request gives them.
///     matmul(m,k,l) and matmul(l,k,m) have isomorphic access structures,
///     but the optimizer is *not* guaranteed transpose-equivariant
///     (candidate enumeration and tie-breaks are orientation-sensitive), so
///     one orientation's plan is never served for the other, and the two
///     get distinct keys.
///  3. **Buffer saturation**: for bs >= m*k + k*l + m*l every tensor fits
///     simultaneously and the plan is constant in bs, so the key clamps the
///     buffer to that full-fit point.  Below it, distinct buffer sizes keep
///     distinct keys.
///
/// Distinct workloads never share a key: every extent, every dimension and
/// tensor name, and the (clamped) buffer size are all spelled into the key
/// text with unambiguous separators.
///
/// The server spells keys straight from a request's fields
/// (spell_request_key), so a hit never builds the operator.
/// try_canonical_intra_key and canonical_fused_key spell the same text from
/// a TensorOp / FusedPair; they are the reference the request spelling is
/// tested against.

namespace fusecu {

/// Canonical key for optimize_intra(op, bs); nullopt when \p op is out of
/// scope for the cache (not matmul-shaped, or a buffer below the minimal
/// working set).
std::optional<std::string> try_canonical_intra_key(const TensorOp& op, BufferSize bs);

/// Canonical key for optimize_fused_pair(pair, bs).  Fused construction is
/// asymmetric in all four extents, so the key is exact (no buffer clamp) —
/// it still folds the request-level equivalences (operator names) away by
/// spelling only extents and operand names.
std::string canonical_fused_key(const FusedPair& pair, BufferSize bs);

/// The request's key, spelled from its fields without building the operator:
/// for a matmul, try_canonical_intra_key(request.to_op(), buffer_elems)
/// (batch folded into M, as to_op() folds it); for a fused pair,
/// canonical_fused_key(request.to_pair(), buffer_elems).  \p key is cleared
/// and reserved to kMaxRequestKeyBytes, which no key exceeds, so a string
/// reused across requests allocates at most once.  Returns false, with
/// \p key empty, when the request is out of scope for the cache: an extent
/// below 1, or a matmul buffer below the minimal working set; to_op() /
/// to_pair() or the optimizer then reports the error.
bool spell_request_key(const PlanRequest& request, std::string& key);

/// Upper bound on a spell_request_key() text: a fused key of four 19-digit
/// extents and a 19-digit buffer is 151 bytes.
constexpr std::size_t kMaxRequestKeyBytes = 160;

}  // namespace fusecu
