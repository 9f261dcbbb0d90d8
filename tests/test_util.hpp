#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "check/gen.hpp"
#include "fusion/fused_pair.hpp"
#include "sim/matrix.hpp"

/// \file test_util.hpp
/// Shared random-workload helpers for the property-based tests, built on the
/// conformance harness generators (src/check/gen.hpp) so the tests and
/// `fusecu_check` exercise the same adversarial distributions (unit dims,
/// primes, powers of two, regime-biased buffer sizes).
///
/// Matrix seeding convention: deterministic input matrices derive from one
/// workload seed via fixed odd multipliers, so a failing parameterized test
/// prints everything needed to replay it (`Seeds/<suite>.<test>/<seed>`).

namespace fusecu::test_util {

/// Random matmul with extents capped at \p max_extent, drawn from the
/// harness's size-biased extent distribution.
inline TensorOp random_matmul(Rng& rng, Index max_extent = 96) {
  GenLimits limits;
  limits.max_extent = max_extent;
  return gen_matmul(rng, limits);
}

/// Random fused pair (A x B) x D with extents capped at \p max_extent.
inline FusedPair random_pair(Rng& rng, Index max_extent = 96) {
  GenLimits limits;
  limits.max_extent = max_extent;
  return gen_fused_pair(rng, limits);
}

/// The matmul \p op with its dimensions declared in the order \p perm
/// (perm[i] = which of M, K, L sits at position i) and A stored transposed:
/// the same nest under a permuted layout.
inline TensorOp permuted_matmul(const TensorOp& op, const std::array<int, 3>& perm) {
  std::array<int, 3> pos{};  // canonical dim -> declared position
  std::vector<Dim> dims;
  for (int i = 0; i < 3; ++i) {
    pos[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = i;
    dims.push_back(op.dim(perm[static_cast<std::size_t>(i)]));
  }
  const int m = pos[mm::kDimM], k = pos[mm::kDimK], l = pos[mm::kDimL];
  return TensorOp(op.name() + "_perm", dims,
                  {{"A", {k, m}, TensorRole::kInput},
                   {"B", {k, l}, TensorRole::kInput},
                   {"C", {m, l}, TensorRole::kOutput}});
}

/// Random valid phased schedule for \p pair; the M/L tiles are additionally
/// capped at \p array_cap so the schedule stays executable on a small
/// simulated array.
inline PhasedFusedDataflow random_phased(Rng& rng, const FusedPair& pair, Index array_cap = 8) {
  PhasedFusedDataflow df;
  df.t_m = rng.uniform(1, std::min<Index>(pair.m(), array_cap));
  df.t_k = rng.uniform(1, pair.k());
  df.t_l = rng.uniform(1, std::min<Index>(pair.l(), array_cap));
  df.t_n = rng.uniform(1, pair.n());
  df.l_outer = rng.chance(0.5);
  return df;
}

/// Deterministic operand matrices for an intra-op matmul.
struct IntraInputs {
  Matrix a, b;
};
inline IntraInputs make_intra_inputs(const TensorOp& op, std::uint64_t seed) {
  return {make_test_matrix(op.extent(mm::kDimM), op.extent(mm::kDimK), seed * 31 + 1),
          make_test_matrix(op.extent(mm::kDimK), op.extent(mm::kDimL), seed * 37 + 2)};
}

/// Deterministic operand matrices for a fused pair (A x B) x D.
struct FusedInputs {
  Matrix a, b, d;
};
inline FusedInputs make_fused_inputs(const FusedPair& pair, std::uint64_t seed) {
  return {make_test_matrix(pair.m(), pair.k(), seed * 31 + 1),
          make_test_matrix(pair.k(), pair.l(), seed * 37 + 2),
          make_test_matrix(pair.l(), pair.n(), seed * 41 + 3)};
}

}  // namespace fusecu::test_util
