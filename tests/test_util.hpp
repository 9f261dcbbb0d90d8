#pragma once

#include <array>
#include <cstdint>
#include <string>
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

/// splitmix64 draws with plain modular reduction, not std distributions, so
/// a population drawn from it is the same under every standard library and
/// compiler (the golden-digest tests depend on that).
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi] (modulo bias is irrelevant here).
  Index uniform(Index lo, Index hi) {
    return lo + static_cast<Index>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

  /// Extent in [1, max]: unit 1/8 of the time, a power of two 1/4, else uniform.
  Index extent(Index max) {
    switch (next() % 8) {
      case 0:
        return 1;
      case 1:
      case 2: {
        Index p = 1;
        for (Index e = uniform(0, 8); e > 0 && 2 * p <= max; --e) p *= 2;
        return p;
      }
      default:
        return uniform(1, max);
    }
  }

 private:
  std::uint64_t state_;
};

/// 64-bit FNV-1a over newline-terminated lines: the digest the golden
/// tests compare against recorded constants.
class Fnv1a {
 public:
  void add(const std::string& line) {
    for (unsigned char ch : line) mix(ch);
    mix('\n');
  }
  std::uint64_t value() const { return hash_; }

 private:
  void mix(unsigned char ch) {
    hash_ ^= ch;
    hash_ *= 0x100000001b3ull;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

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
