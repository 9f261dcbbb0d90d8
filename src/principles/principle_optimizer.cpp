#include "principles/principle_optimizer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <tuple>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace fusecu {

namespace {

/// A matmul-shaped op read once per call into fixed-size arrays, so the
/// constructions below never walk TensorOp's vectors.
struct MatmulShape {
  std::array<Index, 3> extent{};
  std::array<std::uint32_t, 3> mask{};       ///< per tensor: bit d set when dim d indexes it
  std::array<std::array<int, 2>, 3> dims{};  ///< per tensor, in declared order
  std::array<int, 3> other{};                ///< per tensor: the dim it omits
  std::array<Index, 3> size{};               ///< per tensor element count
};

MatmulShape flatten_matmul(const TensorOp& op) {
  FCU_CHECK(op.num_dims() == 3, "principle constructors expect three loop dimensions");
  FCU_CHECK(op.num_tensors() == 3, "principle constructors expect three tensors");
  MatmulShape s;
  for (int d = 0; d < 3; ++d) s.extent[static_cast<std::size_t>(d)] = op.extent(d);
  for (std::size_t t = 0; t < 3; ++t) {
    const std::vector<int>& dims = op.tensor(static_cast<int>(t)).dims;
    FCU_CHECK(dims.size() == 2, "each tensor must index two dimensions");
    s.dims[t] = {dims[0], dims[1]};
    s.mask[t] = (1u << dims[0]) | (1u << dims[1]);
    s.other[t] = 3 - dims[0] - dims[1];  // TensorOp guarantees distinct dims in [0, 3)
    s.size[t] = op.extent(dims[0]) * op.extent(dims[1]);
  }
  FCU_CHECK(s.mask[0] != s.mask[1] && s.mask[0] != s.mask[2] && s.mask[1] != s.mask[2],
            "tensors must cover the three distinct dimension pairs");
  return s;
}

/// One constructed candidate before pricing: loop order and tiles over the
/// op's dims, the regime it targets, and its rule's arguments (Principles 1
/// and 3: a tensor; Principle 2: the untiled dim, then the maximized dim).
/// The rule string is rendered only for the candidates that leave here.
struct IntraConstruction {
  std::array<int, 3> order{};
  std::array<Index, 3> tile{1, 1, 1};
  NraKind intended = NraKind::kSingle;
  int arg0 = -1;
  int arg1 = -1;
  int rank = 0;  ///< position in for_each_principle_candidate()'s order: the last tie-break
};

/// Rank stride between families: none emits more than TilePairs::kCapacity.
constexpr int kFamilyRanks = TilePairs::kCapacity;

/// Principle 1's cost terms for stationary tensor t over its dims d1, d2:
/// MA = |t| + |X2| * n1 + |X1| * n2, where n_i is the trip count of d_i and
/// X_i is the non-stationary tensor sharing d_i (its other dim is t's
/// omitted dim, unit-tiled).
struct SingleNraTerms {
  int d1 = 0, d2 = 0;
  Index size_x1 = 0, size_x2 = 0;
};

SingleNraTerms single_nra_terms(const MatmulShape& s, int t) {
  const auto st = static_cast<std::size_t>(t);
  SingleNraTerms terms{s.dims[st][0], s.dims[st][1]};
  for (std::size_t x = 0; x < 3; ++x) {
    if (x == st) continue;
    if (s.mask[x] & (1u << terms.d1)) terms.size_x1 = s.size[x];
    if (s.mask[x] & (1u << terms.d2)) terms.size_x2 = s.size[x];
  }
  return terms;
}

/// Principle 1 for stationary tensor \p t: every integer refinement of the
/// two-tile closed form over t's dims, third dim unit-tiled.
template <typename Emit>
void for_each_single_nra(const MatmulShape& s, BufferSize bs, int t, Emit&& emit) {
  if (bs < 3) return;  // cannot even hold one element per tensor
  const SingleNraTerms terms = single_nra_terms(s, t);
  IntraConstruction c;
  c.order = {terms.d1, terms.d2, s.other[static_cast<std::size_t>(t)]};
  c.intended = NraKind::kSingle;
  c.arg0 = t;
  c.rank = t * kFamilyRanks;
  const auto d1 = static_cast<std::size_t>(terms.d1);
  const auto d2 = static_cast<std::size_t>(terms.d2);
  for (const auto& [t1, t2] :
       two_tile_candidates(s.extent[d1], s.extent[d2], static_cast<double>(terms.size_x2),
                           static_cast<double>(terms.size_x1), 1, 1, bs)) {
    c.tile[d1] = t1;
    c.tile[d2] = t2;
    emit(c);
    ++c.rank;
  }
}

/// Admissible MA floor of for_each_single_nra(s, bs, t): no construction of
/// the family prices below it (DESIGN.md §6c, "Pruned closed forms").
/// n_i >= e_i / t_i and n_i >= 1, and every emitted pair satisfies
/// t1 t2 + t1 + t2 <= bs, so t1 t2 <= P = (sqrt(1 + bs) - 1)^2; AM-GM over
/// the two re-read terms then gives 2 sqrt(|X1| |X2| e1 e2 / P).  With the
/// third extent 1 the re-reads vanish and only the ideal remains.  A
/// buffer below 3 admits no construction; clamping it at 0 keeps the floor
/// a number, so the floors always sort.
double single_nra_floor(const MatmulShape& s, BufferSize bs, int t) {
  const auto st = static_cast<std::size_t>(t);
  const double resident = static_cast<double>(s.size[st]);
  const SingleNraTerms terms = single_nra_terms(s, t);
  const double x1 = static_cast<double>(terms.size_x1);
  const double x2 = static_cast<double>(terms.size_x2);
  if (s.extent[static_cast<std::size_t>(s.other[st])] == 1) return resident + x1 + x2;
  const double e1 = static_cast<double>(s.extent[static_cast<std::size_t>(terms.d1)]);
  const double e2 = static_cast<double>(s.extent[static_cast<std::size_t>(terms.d2)]);
  const double root = std::sqrt(1.0 + std::max(0.0, static_cast<double>(bs))) - 1.0;
  return resident + std::max(x1 + x2, 2.0 * std::sqrt(x1 * x2 * e1 * e2 / (root * root)));
}

/// Principle 2 for untiled dim \p u and maximized dim \p o.
template <typename Emit>
void for_each_two_nra(const MatmulShape& s, BufferSize bs, int u, int o, Emit&& emit) {
  const int i = 3 - u - o;  // dims are {0,1,2}
  const Index eu = s.extent[static_cast<std::size_t>(u)];

  // Footprint with T_O and unit T_I: EU*T_O + EU + T_O (Eq. 4 with minimal
  // non-maximized tiles).  Feasible at all only if T_O = 1 fits.
  if (2 * eu + 1 > bs) return;
  IntraConstruction c;
  c.order = {o, i, u};
  c.tile[static_cast<std::size_t>(u)] = eu;
  c.tile[static_cast<std::size_t>(o)] =
      clamp_index((bs - eu) / (eu + 1), 1, s.extent[static_cast<std::size_t>(o)]);
  c.intended = NraKind::kTwo;
  c.arg0 = u;
  c.arg1 = o;
  c.rank = 3 * kFamilyRanks + 3 * u + o;
  emit(c);
}

/// Principle 3 keeping tensor \p t fully resident.
template <typename Emit>
void for_each_three_nra(const MatmulShape& s, BufferSize bs, int t, Emit&& emit) {
  const auto st = static_cast<std::size_t>(t);
  const auto d1 = static_cast<std::size_t>(s.dims[st][0]);
  const auto d2 = static_cast<std::size_t>(s.dims[st][1]);
  const auto d3 = static_cast<std::size_t>(s.other[st]);
  const Index e1 = s.extent[d1];
  const Index e2 = s.extent[d2];

  if (e1 * e2 + e1 + e2 > bs) return;
  IntraConstruction c;
  c.order = {s.other[st], s.dims[st][0], s.dims[st][1]};
  c.tile[d1] = e1;
  c.tile[d2] = e2;
  c.tile[d3] = clamp_index((bs - e1 * e2) / (e1 + e2), 1, s.extent[d3]);
  c.intended = NraKind::kThree;
  c.arg0 = t;
  c.rank = 4 * kFamilyRanks + t;
  emit(c);
}

/// Principles 2 and 3: every (U, O) pair, then every resident tensor; at
/// most 9 constructions.
template <typename Emit>
void for_each_multi_nra(const MatmulShape& s, BufferSize bs, Emit&& emit) {
  for (int u = 0; u < 3; ++u) {
    for (int o = 0; o < 3; ++o) {
      if (o != u) for_each_two_nra(s, bs, u, o, emit);
    }
  }
  for (int t = 0; t < 3; ++t) for_each_three_nra(s, bs, t, emit);
}

/// The whole principled set in rank order: Principle 1 per tensor, then
/// Principles 2 and 3.
template <typename Emit>
void for_each_principle_candidate(const MatmulShape& s, BufferSize bs, Emit&& emit) {
  for (int t = 0; t < 3; ++t) for_each_single_nra(s, bs, t, emit);
  for_each_multi_nra(s, bs, emit);
}

std::string render_rule(const TensorOp& op, const IntraConstruction& c) {
  switch (c.intended) {
    case NraKind::kSingle:
      return "P1(stationary=" + op.tensor(c.arg0).name + ")";
    case NraKind::kTwo:
      return "P2(untile=" + op.dim(c.arg0).name + ",max=" + op.dim(c.arg1).name + ")";
    case NraKind::kThree:
      return "P3(resident=" + op.tensor(c.arg0).name + ")";
  }
  FCU_ASSERT_INTERNAL(false, "unknown NRA regime");
}

Dataflow to_dataflow(const IntraConstruction& c) {
  Dataflow df;
  df.loop_order.assign(c.order.begin(), c.order.end());
  df.tile.assign(c.tile.begin(), c.tile.end());
  return df;
}

PrincipleCandidate materialize(const TensorOp& op, const IntraConstruction& c) {
  return {to_dataflow(c), c.intended, render_rule(op, c)};
}

/// The minimum-MA construction (ties: smaller footprint, then lower rank).
struct IntraWinner {
  IntraConstruction construction;
  std::array<AccessCount, 3> per_tensor{};
  AccessCount total = 0;
  Index footprint = 0;
  int candidates = 0;  ///< constructions priced
};

/// The argmin of for_each_principle_candidate() without pricing what cannot
/// win: Principles 2 and 3 first, then the Principle 1 families in ascending
/// floor order, stopping at the first floor strictly above the incumbent.
/// Merging by (total, footprint, rank) makes the pricing order irrelevant.
IntraWinner closed_form_winner(const MatmulShape& s, BufferSize bs) {
  IntraWinner best;
  auto price = [&](const IntraConstruction& c) {
    std::array<AccessCount, 3> per_tensor{};
    const AccessCount total = nest_access(s.extent, c.order, c.tile, s.mask, per_tensor);
    Index footprint = 0;  // constructed tiles never exceed their extents
    for (const auto& dims : s.dims) {
      footprint += c.tile[static_cast<std::size_t>(dims[0])] *
                   c.tile[static_cast<std::size_t>(dims[1])];
    }
    FCU_ASSERT_INTERNAL(footprint <= bs, "principle constructor emitted an infeasible dataflow");
    const bool better = best.candidates == 0 ||
                        std::tie(total, footprint, c.rank) <
                            std::tie(best.total, best.footprint, best.construction.rank);
    ++best.candidates;
    if (better) {
      best.construction = c;
      best.per_tensor = per_tensor;
      best.total = total;
      best.footprint = footprint;
    }
  };
  for_each_multi_nra(s, bs, price);
  std::array<std::pair<double, int>, 3> families{};
  for (int t = 0; t < 3; ++t) {
    families[static_cast<std::size_t>(t)] = {single_nra_floor(s, bs, t), t};
  }
  std::sort(families.begin(), families.end());
  for (const auto& [floor, t] : families) {
    if (best.candidates > 0 && floor_exceeds(floor, best.total)) break;
    for_each_single_nra(s, bs, t, price);
  }
  return best;
}

/// NRA count of closed_form_winner()'s result, which must exist.
int winner_nra(const TensorOp& op, const MatmulShape& s, const IntraWinner& best) {
  FCU_CHECK(best.candidates > 0,
            "buffer too small to hold the minimal working set of " + op.name());
  int nra = 0;
  for (std::size_t t = 0; t < 3; ++t) nra += best.per_tensor[t] == s.size[t] ? 1 : 0;
  FCU_ASSERT_INTERNAL(nra >= 1 && nra <= 3, "optimal dataflow must be 1/2/3-NRA");
  return nra;
}

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

}  // namespace

void require_matmul_shape(const TensorOp& op) { (void)flatten_matmul(op); }

bool floor_exceeds(double floor, AccessCount incumbent) {
  return floor * (1.0 - 1e-9) > static_cast<double>(incumbent);
}

namespace detail {

double single_nra_floor(const TensorOp& op, BufferSize bs, int stationary_tensor) {
  FCU_CHECK(stationary_tensor >= 0 && stationary_tensor < 3, "tensor index out of range");
  return fusecu::single_nra_floor(flatten_matmul(op), bs, stationary_tensor);
}

}  // namespace detail

void TilePairs::insert(Index t1, Index t2) {
  const std::pair<Index, Index> p{t1, t2};
  auto* const last = pairs_.data() + size_;
  auto* const pos = std::lower_bound(pairs_.data(), last, p);
  if (pos != last && *pos == p) return;
  FCU_ASSERT_INTERNAL(size_ < kCapacity, "two-tile construction exceeded its constant size");
  std::move_backward(pos, last, last + 1);
  *pos = p;
  ++size_;
}

TilePairs two_tile_candidates(Index e1, Index e2, double w1, double w2, Index c1, Index c2,
                              BufferSize bs) {
  FCU_CHECK(e1 >= 1 && e2 >= 1, "extents must be positive");
  FCU_CHECK(c1 >= 0 && c2 >= 0, "footprint coefficients must be non-negative");
  TilePairs pairs;
  if (1 + c1 + c2 > bs) return pairs;

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

  TripSeeds n1_seeds;
  n1_seeds.insert(1);
  n1_seeds.insert(2);
  for (Index t_seed : {t_sym, t_weighted}) {
    const Index n = ceil_div(e1, clamp_index(t_seed, 1, e1));
    for (Index delta = -2; delta <= 2; ++delta) n1_seeds.insert(clamp_index(n + delta, 1, e1));
  }

  auto add_pair = [&](Index t1, Index t2) {
    // Shrink each tile to the smallest size with the same trip count: MA is
    // unchanged and the freed buffer can only help feasibility.
    t1 = ceil_div(e1, ceil_div(e1, clamp_index(t1, 1, e1)));
    t2 = ceil_div(e2, ceil_div(e2, clamp_index(t2, 1, e2)));
    if (t1 * t2 + c1 * t1 + c2 * t2 <= bs) pairs.insert(t1, t2);
  };
  // Probe each seeded trip count on d1, maximizing t2 in its complement
  // (bs - c1 t1) / (t1 + c2); then mirror the roles.
  for (Index n1 : n1_seeds) {
    const Index t1 = ceil_div(e1, n1);
    if (t1 * 1 + c1 * t1 + c2 > bs) continue;
    add_pair(t1, (bs - c1 * t1) / (t1 + c2));
  }
  // The mirror probes d2's trip counts: d1's seeds reused, plus d2's own
  // neighbourhood of the symmetric seed and of the weighted seed's
  // complement bs / t_weighted — d2's breakpoints differ from d1's whenever
  // the extents do, and the optimum can sit on either side's.
  TripSeeds n2_seeds;
  for (Index n1 : n1_seeds) n2_seeds.insert(clamp_index(n1, 1, e2));
  for (Index t_seed : {t_sym, bs / t_weighted}) {
    const Index n = ceil_div(e2, clamp_index(t_seed, 1, e2));
    for (Index delta = -2; delta <= 2; ++delta) n2_seeds.insert(clamp_index(n + delta, 1, e2));
  }
  for (Index n2 : n2_seeds) {
    const Index t2 = ceil_div(e2, n2);
    if (1 * t2 + c1 + c2 * t2 > bs) continue;
    add_pair((bs - c2 * t2) / (t2 + c1), t2);
  }
  return pairs;
}

std::vector<PrincipleCandidate> make_single_nra(const TensorOp& op, BufferSize bs,
                                                int stationary_tensor) {
  const MatmulShape s = flatten_matmul(op);
  FCU_CHECK(stationary_tensor >= 0 && stationary_tensor < 3, "tensor index out of range");
  std::vector<PrincipleCandidate> out;
  for_each_single_nra(s, bs, stationary_tensor,
                      [&](const IntraConstruction& c) { out.push_back(materialize(op, c)); });
  return out;
}

std::optional<PrincipleCandidate> make_two_nra(const TensorOp& op, BufferSize bs, int untiled_dim,
                                               int maximized_dim) {
  const MatmulShape s = flatten_matmul(op);
  FCU_CHECK(untiled_dim >= 0 && untiled_dim < 3, "dim index out of range");
  FCU_CHECK(maximized_dim >= 0 && maximized_dim < 3, "dim index out of range");
  FCU_CHECK(untiled_dim != maximized_dim, "untiled and maximized dims must differ");
  std::optional<PrincipleCandidate> out;
  for_each_two_nra(s, bs, untiled_dim, maximized_dim,
                   [&](const IntraConstruction& c) { out = materialize(op, c); });
  return out;
}

std::optional<PrincipleCandidate> make_three_nra(const TensorOp& op, BufferSize bs,
                                                 int resident_tensor) {
  const MatmulShape s = flatten_matmul(op);
  FCU_CHECK(resident_tensor >= 0 && resident_tensor < 3, "tensor index out of range");
  std::optional<PrincipleCandidate> out;
  for_each_three_nra(s, bs, resident_tensor,
                     [&](const IntraConstruction& c) { out = materialize(op, c); });
  return out;
}

std::vector<PrincipleCandidate> principle_candidates(const TensorOp& op, BufferSize bs) {
  const MatmulShape s = flatten_matmul(op);
  std::vector<PrincipleCandidate> out;
  for_each_principle_candidate(
      s, bs, [&](const IntraConstruction& c) { out.push_back(materialize(op, c)); });
  return out;
}

NraKind optimal_regime(const TensorOp& op, BufferSize bs) {
  const MatmulShape s = flatten_matmul(op);
  return static_cast<NraKind>(winner_nra(op, s, closed_form_winner(s, bs)));
}

IntraOptResult optimize_intra(const TensorOp& op, BufferSize bs) {
  ScopedSpan span("optimize/intra", FCU_HISTOGRAM("time/optimize/intra"));
  const MatmulShape s = flatten_matmul(op);
  const IntraWinner best = closed_form_winner(s, bs);
  FCU_COUNTER("principles/optimize_intra/calls").add();
  FCU_COUNTER("principles/optimize_intra/candidates").add(best.candidates);
  const int nra = winner_nra(op, s, best);

  IntraOptResult result;
  result.dataflow = to_dataflow(best.construction);
  result.access.per_tensor.assign(best.per_tensor.begin(), best.per_tensor.end());
  result.access.total = best.total;
  result.access.buffer_footprint = best.footprint;
  result.rule = render_rule(op, best.construction);
  result.buffer_class = classify_buffer(op, bs);
  result.nra = static_cast<NraKind>(nra);
  static const char* const kNraNames[] = {nullptr, "1", "2", "3"};
  static CounterFamily<4> winners("principles/optimize_intra/winner_nra_");
  winners.at(static_cast<std::size_t>(nra), kNraNames[nra]).add();
  span.note(result.rule.c_str());
  return result;
}

AccessCount eq1_output_stationary_access(Index m, Index k, Index l, Index t_m, Index t_l) {
  return m * k * ceil_div(l, t_l) + k * l * ceil_div(m, t_m) + m * l;
}

AccessCount eq3_two_nra_access(Index m, Index k, Index l, Index t_m) {
  return k * l * ceil_div(m, t_m) + m * k + m * l;
}

}  // namespace fusecu
