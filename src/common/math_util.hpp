#pragma once

#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

/// \file math_util.hpp
/// Small integer helpers shared by the cost models and optimizers.

namespace fusecu {

/// ceil(a / b) for positive integers.
constexpr Index ceil_div(Index a, Index b) { return (a + b - 1) / b; }

/// Round \p a up to the next multiple of \p b.
constexpr Index round_up(Index a, Index b) { return ceil_div(a, b) * b; }

/// Round \p a down to the previous multiple of \p b (at least b if a >= b).
constexpr Index round_down(Index a, Index b) { return (a / b) * b; }

/// Clamp \p v into [lo, hi].
constexpr Index clamp_index(Index v, Index lo, Index hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Integer floor square root.
inline Index isqrt(Index v) {
  FCU_CHECK(v >= 0, "isqrt of negative value");
  if (v < 2) return v;
  auto r = static_cast<Index>(std::sqrt(static_cast<double>(v)));
  while (r * r > v) --r;
  while ((r + 1) * (r + 1) <= v) ++r;
  return r;
}

/// All positive divisors of \p v in ascending order.
std::vector<Index> divisors(Index v);

/// Candidate tile sizes for a dimension of extent \p d: all divisors plus the
/// geometric ladder {1,2,4,...} clamped to d, deduplicated ascending.  Search
/// baselines sweep these rather than every integer in [1, d].
std::vector<Index> tile_candidates(Index d);

/// Geometric mean of a series of positive ratios (used for "average
/// saving/speedup" summaries, matching how accelerator papers aggregate).
double geo_mean(const std::vector<double>& xs);

/// Arithmetic mean.
double arith_mean(const std::vector<double>& xs);

}  // namespace fusecu
