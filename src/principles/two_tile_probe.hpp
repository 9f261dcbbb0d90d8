#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "common/types.hpp"

/// \file two_tile_probe.hpp
/// The probe generator of the closed-form two-tile maximization shared by
/// Principle 1 and the fused phased corners: choose tiles (t1, t2) for
/// dimensions of extents (e1, e2) minimizing   w1 * n1 + w2 * n2,
/// n_i = ceil(e_i / t_i),   subject to   t1*t2 + c1*t1 + c2*t2 <= bs.
/// Memory access is a step function of the *trip counts*, so the optimum
/// sits on trip-count breakpoints t_i = ceil(e_i / n_i).  The probes are
/// seeded from both sides: trip counts of d1 within +-2 of the symmetric and
/// the weight-balanced continuous optima (plus 1 and 2) are probed with t2
/// maximized in the remaining budget, and trip counts of d2 — the same d1
/// seeds, plus d2's own +-2 neighbourhood of the symmetric seed and of the
/// weighted seed's complement bs / t1* — with t1 maximized.  Seeding only
/// from d1 misses optima that sit on a breakpoint of d2.  At most 34 probes,
/// not a search.
///
/// Each probe arrives with its trip counts, so a caller prices it from
/// those alone; two_tile_candidates() (principle_optimizer.hpp) collects the
/// distinct pairs for the reference candidate sets.

namespace fusecu {

namespace detail {

/// Duplicate-free trip-count seeds, held inline: at most 1, 2 and two
/// 5-wide neighbourhoods for d1 (12); d1's seeds plus two more for d2 (22).
class TripSeeds {
 public:
  void insert(Index n) {
    if (std::find(begin(), end(), n) != end()) return;
    FCU_ASSERT_INTERNAL(size_ < static_cast<int>(seeds_.size()), "too many trip-count seeds");
    seeds_[static_cast<std::size_t>(size_++)] = n;
  }
  const Index* begin() const { return seeds_.data(); }
  const Index* end() const { return seeds_.data() + size_; }

 private:
  std::array<Index, 22> seeds_{};
  int size_ = 0;
};

}  // namespace detail

/// Upper bound on the probes (and so the distinct pairs) of one two-tile
/// sweep: at most 12 seeded trip counts of d1 and 22 of d2.
inline constexpr std::size_t kMaxTwoTileProbes = 34;

/// The (t1, t2) pairs a sweep has already priced, held inline, so a
/// repeated probe is priced once.  \p Capacity bounds the distinct pairs:
/// kMaxTwoTileProbes per sweep the set spans.
template <std::size_t Capacity>
class SeenTilePairs {
 public:
  /// False when the pair was seen before.
  bool insert(Index t1, Index t2) {
    bool seen = false;  // branch-free, so the scan vectorizes
    for (std::size_t i = 0; i < size_; ++i) seen |= (t1s_[i] == t1) & (t2s_[i] == t2);
    if (seen) return false;
    FCU_ASSERT_INTERNAL(size_ < Capacity, "two-tile sweep exceeded its constant size");
    t1s_[size_] = t1;
    t2s_[size_] = t2;
    ++size_;
    return true;
  }

 private:
  std::array<Index, Capacity> t1s_{};
  std::array<Index, Capacity> t2s_{};
  std::size_t size_ = 0;
};

/// Calls visit(t1, n1, t2, n2) for every feasible probe of the two-tile
/// sweep over (e1, e2), weights (w1, w2), footprint coefficients (c1, c2)
/// and buffer bs, in probe order; the same pair can arrive more than once.
/// Each tile is the smallest with its trip count (MA is unchanged and the
/// freed buffer can only help feasibility), and n_i = ceil(e_i / t_i).  The
/// probed side needs no re-snap: for t = ceil(e/n), ceil(e / ceil(e/t)) = t.
template <typename Visit>
void for_each_two_tile_probe(Index e1, Index e2, double w1, double w2, Index c1, Index c2,
                             BufferSize bs, Visit&& visit) {
  FCU_CHECK(e1 >= 1 && e2 >= 1, "extents must be positive");
  FCU_CHECK(c1 >= 0 && c2 >= 0, "footprint coefficients must be non-negative");
  if (1 + c1 + c2 > bs) return;

  // Continuous seeds: symmetric (t1 = t2 solving t^2 + (c1+c2) t = bs) and
  // weight-balanced (t1* = sqrt(bs * w1 e1 / (w2 e2)) from the Lagrange
  // condition of  w1 e1/t1 + w2 e2/t2  under t1 t2 = bs).
  const Index t_sym =
      std::max<Index>(1, (isqrt((c1 + c2) * (c1 + c2) + 4 * bs) - (c1 + c2)) / 2);
  Index t_weighted = t_sym;
  const double a = w1 * static_cast<double>(e1);
  const double b = w2 * static_cast<double>(e2);
  if (a > 0 && b > 0) {
    t_weighted =
        clamp_index(static_cast<Index>(std::sqrt(static_cast<double>(bs) * a / b)), 1, e1);
  }

  detail::TripSeeds n1_seeds;
  n1_seeds.insert(1);
  n1_seeds.insert(2);
  for (Index t_seed : {t_sym, t_weighted}) {
    const Index n = ceil_div(e1, clamp_index(t_seed, 1, e1));
    for (Index delta = -2; delta <= 2; ++delta) n1_seeds.insert(clamp_index(n + delta, 1, e1));
  }

  // Probe each seeded trip count on d1, maximizing t2 in its complement
  // (bs - c1 t1) / (t1 + c2); then mirror the roles.
  for (Index n : n1_seeds) {
    const Index t1 = ceil_div(e1, n);
    if (t1 * 1 + c1 * t1 + c2 > bs) continue;
    const Index n2 = ceil_div(e2, clamp_index((bs - c1 * t1) / (t1 + c2), 1, e2));
    const Index t2 = ceil_div(e2, n2);
    if (t1 * t2 + c1 * t1 + c2 * t2 <= bs) visit(t1, ceil_div(e1, t1), t2, n2);
  }
  // The mirror probes d2's trip counts: d1's seeds reused, plus d2's own
  // neighbourhood of the symmetric seed and of the weighted seed's
  // complement bs / t_weighted — d2's breakpoints differ from d1's whenever
  // the extents do, and the optimum can sit on either side's.
  detail::TripSeeds n2_seeds;
  for (Index n1 : n1_seeds) n2_seeds.insert(clamp_index(n1, 1, e2));
  for (Index t_seed : {t_sym, bs / t_weighted}) {
    const Index n = ceil_div(e2, clamp_index(t_seed, 1, e2));
    for (Index delta = -2; delta <= 2; ++delta) n2_seeds.insert(clamp_index(n + delta, 1, e2));
  }
  for (Index n : n2_seeds) {
    const Index t2 = ceil_div(e2, n);
    if (1 * t2 + c1 + c2 * t2 > bs) continue;
    const Index n1 = ceil_div(e1, clamp_index((bs - c2 * t2) / (t2 + c1), 1, e1));
    const Index t1 = ceil_div(e1, n1);
    if (t1 * t2 + c1 * t1 + c2 * t2 <= bs) visit(t1, n1, t2, ceil_div(e2, t2));
  }
}

}  // namespace fusecu
