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
/// from d1 misses optima that sit on a breakpoint of d2.  Each side's seeds
/// are walked as merged trip-count intervals (at most 3 for d1, 5 for d2) in
/// ascending order, no seed tracked or looked up: at most 34 probes, not a
/// search.
///
/// Each probe arrives with its trip counts, so a caller prices it from
/// those alone; two_tile_candidates() (principle_optimizer.hpp) collects the
/// distinct pairs for the reference candidate sets.

namespace fusecu {

namespace detail {

/// The trip counts lo, lo + 1, ..., hi.
struct TripRun {
  Index lo = 1;
  Index hi = 1;
};

/// The +-2 neighbourhood in [1, e] of the trip count of tile \p t over extent \p e.
inline TripRun trip_neighbourhood(Index e, Index t) {
  const Index n = ceil_div(e, clamp_index(t, 1, e));
  return {std::max<Index>(1, n - 2), std::min(e, n + 2)};
}

/// Calls probe(t, n) once per distinct tile t = ceil(e / n) over the trip
/// counts n of \p runs, walked as their merged intervals in ascending order,
/// with n = ceil(e / t).  A seed is its tile's own trip count exactly when
/// t (n - 1) < e; otherwise seed n - 1, if walked, has the same tile.
template <std::size_t N, typename Probe>
void for_each_seeded_tile(Index e, std::array<TripRun, N> runs, Probe&& probe) {
  for (std::size_t i = 1; i < N; ++i) {  // insertion sort by lo
    for (auto j = i; j > 0 && runs[j].lo < runs[j - 1].lo; --j) std::swap(runs[j], runs[j - 1]);
  }
  Index last = 0;  // the largest trip count walked so far
  for (const TripRun& run : runs) {
    for (Index n = std::max(run.lo, last + 1); n <= run.hi; last = n++) {
      const Index t = ceil_div(e, n);
      const bool own = t * (n - 1) < e;
      if (own || last != n - 1) probe(t, own ? n : ceil_div(e, t));
    }
  }
}

/// (tile, trips) of the largest tile of extent \p e within \p room, snapped down.
inline std::pair<Index, Index> fill_room(Index e, Index room) {
  const Index n = room >= e ? 1 : ceil_div(e, room);
  return {n == 1 ? e : ceil_div(e, n), n};
}

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
/// and buffer bs, ascending by the probed side's trip count, d1's probes
/// first; the same pair can arrive more than once.  Each tile is the
/// smallest with its trip count (MA is unchanged and the freed buffer can
/// only help feasibility), and n_i = ceil(e_i / t_i).  The other side's
/// tile never exceeds its room, so every probe fits.
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
  const double a = w1 * static_cast<double>(e1);
  const double b = w2 * static_cast<double>(e2);
  const Index t_weighted =
      a > 0 && b > 0
          ? clamp_index(static_cast<Index>(std::sqrt(static_cast<double>(bs) * a / b)), 1, e1)
          : t_sym;

  // Probe d1's seeds, maximizing t2 in its room (bs - c1 t1) / (t1 + c2),
  // at least 1 once t1 itself fits; then mirror the roles.
  const detail::TripRun sym1 = detail::trip_neighbourhood(e1, t_sym);
  const detail::TripRun weighted1 = detail::trip_neighbourhood(e1, t_weighted);
  const std::array<detail::TripRun, 3> runs1 = {{{1, std::min<Index>(2, e1)}, sym1, weighted1}};
  detail::for_each_seeded_tile(e1, runs1, [&](Index t1, Index n1) {
    if (t1 + c1 * t1 + c2 > bs) return;
    const auto [t2, n2] = detail::fill_room(e2, (bs - c1 * t1) / (t1 + c2));
    visit(t1, n1, t2, n2);
  });
  // The mirror probes d2's trip counts: d1's seeds clamped to e2 (1 and 2
  // as seeded, not as clamped to e1), plus d2's own neighbourhood of the
  // symmetric seed and of the weighted seed's complement bs / t_weighted —
  // d2's breakpoints differ from d1's whenever the extents do, and the
  // optimum can sit on either side's.
  const std::array<detail::TripRun, 5> runs2 = {
      {{1, std::min<Index>(2, e2)},
       {std::min(sym1.lo, e2), std::min(sym1.hi, e2)},
       {std::min(weighted1.lo, e2), std::min(weighted1.hi, e2)},
       detail::trip_neighbourhood(e2, t_sym), detail::trip_neighbourhood(e2, bs / t_weighted)}};
  detail::for_each_seeded_tile(e2, runs2, [&](Index t2, Index n2) {
    if (t2 + c1 + c2 * t2 > bs) return;
    const auto [t1, n1] = detail::fill_room(e1, (bs - c2 * t2) / (t2 + c1));
    visit(t1, n1, t2, n2);
  });
}

}  // namespace fusecu
