#include "principles/principle_optimizer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string_view>
#include <tuple>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace fusecu {

namespace {

/// One constructed candidate before pricing: loop order and tiles over the
/// op's dims and its rule (the regime it targets and its arguments).  The
/// rule string is rendered only for the candidates that leave here.
struct IntraConstruction {
  std::array<int, 3> order{};
  std::array<Index, 3> tile{1, 1, 1};
  IntraRule rule;
  /// The family's position in for_each_principle_candidate()'s order:
  /// Principle 1 per tensor (0-2), Principle 2 per (U, O) (3 + 3U + O),
  /// Principle 3 per tensor (12-14).
  int rank = 0;
};

/// Principle 1's cost terms for stationary tensor t over its dims d1, d2:
/// MA = |t| + |X2| * n1 + |X1| * n2, where n_i is the trip count of d_i and
/// X_i is the non-stationary tensor sharing d_i (its other dim is t's
/// omitted dim, unit-tiled).
struct SingleNraTerms {
  int d1 = 0, d2 = 0;
  int x1 = 0, x2 = 0;  ///< tensor indices of X1 and X2
  Index size_x1 = 0, size_x2 = 0;
  bool third_tiled = false;  ///< t's omitted dim has extent above 1
};

SingleNraTerms single_nra_terms(const MatmulShape& s, int t) {
  const auto st = static_cast<std::size_t>(t);
  SingleNraTerms terms{s.dims[st][0], s.dims[st][1]};
  for (std::size_t x = 0; x < 3; ++x) {
    if (x == st) continue;
    if (s.mask[x] & (1u << terms.d1)) {
      terms.x1 = static_cast<int>(x);
      terms.size_x1 = s.size[x];
    }
    if (s.mask[x] & (1u << terms.d2)) {
      terms.x2 = static_cast<int>(x);
      terms.size_x2 = s.size[x];
    }
  }
  terms.third_tiled = s.extent[static_cast<std::size_t>(s.other[st])] > 1;
  return terms;
}

/// X1's and X2's MA at trip counts (n1, n2) of d1 and d2, as nest_access()
/// counts the order (d1, d2, d3) with d3 unit-tiled: X1 once per d2 step and
/// X2 once per d1 step; with a unit third extent X1 is read once, and X2
/// once per d1 step only while d2 is tiled (n2 > 1).
std::array<AccessCount, 2> single_nra_rereads(const SingleNraTerms& terms, Index n1, Index n2) {
  return {terms.third_tiled ? terms.size_x1 * n2 : terms.size_x1,
          terms.third_tiled || n2 > 1 ? terms.size_x2 * n1 : terms.size_x2};
}

/// Principle 1's construction for stationary tensor \p t at tiles (t1, t2).
IntraConstruction single_nra_construction(const MatmulShape& s, const SingleNraTerms& terms,
                                          int t, Index t1, Index t2) {
  IntraConstruction c;
  c.order = {terms.d1, terms.d2, s.other[static_cast<std::size_t>(t)]};
  c.tile[static_cast<std::size_t>(terms.d1)] = t1;
  c.tile[static_cast<std::size_t>(terms.d2)] = t2;
  c.rule = {NraKind::kSingle, t};
  c.rank = t;
  return c;
}

/// Principle 1 for stationary tensor \p t: every integer refinement of the
/// two-tile closed form over t's dims, third dim unit-tiled, ascending by
/// (t1, t2).
template <typename Emit>
void for_each_single_nra(const MatmulShape& s, BufferSize bs, int t, Emit&& emit) {
  if (bs < 3) return;  // cannot even hold one element per tensor
  const SingleNraTerms terms = single_nra_terms(s, t);
  for (const auto& [t1, t2] :
       two_tile_candidates(s.extent[static_cast<std::size_t>(terms.d1)],
                           s.extent[static_cast<std::size_t>(terms.d2)],
                           static_cast<double>(terms.size_x2),
                           static_cast<double>(terms.size_x1), 1, 1, bs)) {
    emit(single_nra_construction(s, terms, t, t1, t2));
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
  c.rule = {NraKind::kTwo, u, o};
  c.rank = 3 + 3 * u + o;
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
  c.rule = {NraKind::kThree, t};
  c.rank = 12 + t;
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

Dataflow to_dataflow(const std::array<int, 3>& order, const std::array<Index, 3>& tile) {
  Dataflow df;
  df.loop_order.assign(order.begin(), order.end());
  df.tile.assign(tile.begin(), tile.end());
  return df;
}

PrincipleCandidate to_candidate(const TensorOp& op, const IntraConstruction& c) {
  return {to_dataflow(c.order, c.tile), c.rule.family, rule_text(c.rule, labels_of(op)).str()};
}

/// A construction's place in the winner's order: total MA, footprint, then
/// its position in for_each_principle_candidate() — the family rank, then,
/// inside a Principle 1 family, (t1, t2) ascending.  Principles 2 and 3
/// have one construction per family and leave (t1, t2) at 0.
using IntraKey = std::tuple<AccessCount, Index, int, Index, Index>;

/// The minimum-MA construction by IntraKey.
struct IntraWinner {
  IntraConstruction construction;
  std::array<AccessCount, 3> per_tensor{};
  IntraKey key{};
  int candidates = 0;  ///< constructions priced

  AccessCount total() const { return std::get<0>(key); }
  Index footprint() const { return std::get<1>(key); }

  /// Counts one priced construction; true when it beats the incumbent.
  bool priced_beats(const IntraKey& k) { return candidates++ == 0 || k < key; }
};

/// Prices Principle 1 for stationary tensor \p t probe by probe, from the
/// trip counts alone (DESIGN.md §6c, "Pruned closed forms"): S is read
/// once, X1 and X2 as single_nra_rereads() counts.  A repeated probe is
/// priced once.
void price_single_nra(const MatmulShape& s, BufferSize bs, int t, IntraWinner& best) {
  const auto st = static_cast<std::size_t>(t);
  const SingleNraTerms terms = single_nra_terms(s, t);
  SeenTilePairs<kMaxTwoTileProbes> seen;
  auto price = [&](Index t1, Index n1, Index t2, Index n2) {
    if (!seen.insert(t1, t2)) return;
    const auto [x1, x2] = single_nra_rereads(terms, n1, n2);
    const Index footprint = t1 * t2 + t1 + t2;
    FCU_ASSERT_INTERNAL(footprint <= bs, "principle constructor emitted an infeasible dataflow");
    const IntraKey key{s.size[st] + x1 + x2, footprint, t, t1, t2};
    if (!best.priced_beats(key)) return;
    best.construction = single_nra_construction(s, terms, t, t1, t2);
    best.per_tensor[st] = s.size[st];
    best.per_tensor[static_cast<std::size_t>(terms.x1)] = x1;
    best.per_tensor[static_cast<std::size_t>(terms.x2)] = x2;
    best.key = key;
  };
  for_each_two_tile_probe(s.extent[static_cast<std::size_t>(terms.d1)],
                          s.extent[static_cast<std::size_t>(terms.d2)],
                          static_cast<double>(terms.size_x2), static_cast<double>(terms.size_x1),
                          1, 1, bs, price);
}

/// The argmin of for_each_principle_candidate() without pricing what cannot
/// win: Principles 2 and 3 first, then the Principle 1 families in ascending
/// floor order, stopping at the first floor strictly above the incumbent.
/// Merging by IntraKey makes the pricing order irrelevant.
IntraWinner closed_form_winner(const MatmulShape& s, BufferSize bs) {
  IntraWinner best;
  for_each_multi_nra(s, bs, [&](const IntraConstruction& c) {
    std::array<AccessCount, 3> per_tensor{};
    const AccessCount total = nest_access(s.extent, c.order, c.tile, s.mask, per_tensor);
    Index footprint = 0;  // constructed tiles never exceed their extents
    for (const auto& dims : s.dims) {
      footprint += c.tile[static_cast<std::size_t>(dims[0])] *
                   c.tile[static_cast<std::size_t>(dims[1])];
    }
    FCU_ASSERT_INTERNAL(footprint <= bs, "principle constructor emitted an infeasible dataflow");
    const IntraKey key{total, footprint, c.rank, 0, 0};
    if (!best.priced_beats(key)) return;
    best.construction = c;
    best.per_tensor = per_tensor;
    best.key = key;
  });
  std::array<std::pair<double, int>, 3> families{};
  for (int t = 0; t < 3; ++t) {
    families[static_cast<std::size_t>(t)] = {single_nra_floor(s, bs, t), t};
  }
  std::sort(families.begin(), families.end());
  for (const auto& [floor, t] : families) {
    if (best.candidates > 0 && floor_exceeds(floor, best.total())) break;
    price_single_nra(s, bs, t, best);
  }
  return best;
}

/// NRA count of closed_form_winner()'s result, which must exist.
int winner_nra(const MatmulLabels& labels, const MatmulShape& s, const IntraWinner& best) {
  FCU_CHECK(best.candidates > 0, "buffer too small to hold the minimal working set of " +
                                     std::string(labels.name).append(labels.name_suffix));
  int nra = 0;
  for (std::size_t t = 0; t < 3; ++t) nra += best.per_tensor[t] == s.size[t] ? 1 : 0;
  FCU_ASSERT_INTERNAL(nra >= 1 && nra <= 3, "optimal dataflow must be 1/2/3-NRA");
  return nra;
}

}  // namespace

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

MatmulShape matmul_shape(Index m, Index k, Index l) {
  MatmulShape s;
  s.extent = {m, k, l};
  s.mask = mm::kTensorMasks;
  s.dims = {{{mm::kDimM, mm::kDimK}, {mm::kDimK, mm::kDimL}, {mm::kDimM, mm::kDimL}}};
  s.other = {mm::kDimL, mm::kDimM, mm::kDimK};
  s.size = {m * k, k * l, m * l};
  return s;
}

BufferClass classify_buffer(const MatmulShape& shape, BufferSize bs) {
  return classify_buffer(*std::min_element(shape.extent.begin(), shape.extent.end()),
                         *std::min_element(shape.size.begin(), shape.size.end()), bs);
}

MatmulLabels labels_of(const TensorOp& op) {
  MatmulLabels labels;
  for (int i = 0; i < 3; ++i) {
    labels.dims[static_cast<std::size_t>(i)] = op.dim(i).name;
    labels.tensors[static_cast<std::size_t>(i)] = op.tensor(i).name;
  }
  labels.name = op.name();
  return labels;
}

std::size_t RuleText::size() const {
  std::size_t n = 0;
  for (std::string_view piece : pieces) n += piece.size();
  return n;
}

std::string RuleText::str() const {
  std::string out;
  out.reserve(size());
  for (std::string_view piece : pieces) out.append(piece);
  return out;
}

RuleText rule_text(const IntraRule& rule, const MatmulLabels& labels) {
  const auto at = [](int i) { return static_cast<std::size_t>(i); };
  switch (rule.family) {
    case NraKind::kSingle:
      return {{"P1(stationary=", labels.tensors[at(rule.arg0)], ")"}};
    case NraKind::kTwo:
      return {{"P2(untile=", labels.dims[at(rule.arg0)], ",max=", labels.dims[at(rule.arg1)], ")"}};
    case NraKind::kThree:
      return {{"P3(resident=", labels.tensors[at(rule.arg0)], ")"}};
  }
  FCU_ASSERT_INTERNAL(false, "unknown NRA regime");
}

void require_matmul_shape(const TensorOp& op) { (void)flatten_matmul(op); }

bool floor_exceeds(double floor, AccessCount incumbent) {
  return floor * (1.0 - 1e-9) > static_cast<double>(incumbent);
}

namespace detail {

double single_nra_floor(const TensorOp& op, BufferSize bs, int stationary_tensor) {
  FCU_CHECK(stationary_tensor >= 0 && stationary_tensor < 3, "tensor index out of range");
  return fusecu::single_nra_floor(flatten_matmul(op), bs, stationary_tensor);
}

std::array<AccessCount, 3> single_nra_probe_access(const TensorOp& op, int stationary_tensor,
                                                   Index t1, Index t2) {
  FCU_CHECK(stationary_tensor >= 0 && stationary_tensor < 3, "tensor index out of range");
  const MatmulShape s = flatten_matmul(op);
  const SingleNraTerms terms = single_nra_terms(s, stationary_tensor);
  const Index e1 = s.extent[static_cast<std::size_t>(terms.d1)];
  const Index e2 = s.extent[static_cast<std::size_t>(terms.d2)];
  FCU_CHECK(t1 >= 1 && t1 <= e1 && t2 >= 1 && t2 <= e2, "tile out of range");
  const auto [x1, x2] = single_nra_rereads(terms, ceil_div(e1, t1), ceil_div(e2, t2));
  std::array<AccessCount, 3> per_tensor{};
  per_tensor[static_cast<std::size_t>(stationary_tensor)] =
      s.size[static_cast<std::size_t>(stationary_tensor)];
  per_tensor[static_cast<std::size_t>(terms.x1)] = x1;
  per_tensor[static_cast<std::size_t>(terms.x2)] = x2;
  return per_tensor;
}

}  // namespace detail

std::vector<std::pair<Index, Index>> two_tile_candidates(Index e1, Index e2, double w1,
                                                         double w2, Index c1, Index c2,
                                                         BufferSize bs) {
  std::vector<std::pair<Index, Index>> pairs;
  for_each_two_tile_probe(e1, e2, w1, w2, c1, c2, bs,
                          [&](Index t1, Index, Index t2, Index) { pairs.emplace_back(t1, t2); });
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

std::vector<PrincipleCandidate> make_single_nra(const TensorOp& op, BufferSize bs,
                                                int stationary_tensor) {
  const MatmulShape s = flatten_matmul(op);
  FCU_CHECK(stationary_tensor >= 0 && stationary_tensor < 3, "tensor index out of range");
  std::vector<PrincipleCandidate> out;
  for_each_single_nra(s, bs, stationary_tensor,
                      [&](const IntraConstruction& c) { out.push_back(to_candidate(op, c)); });
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
                   [&](const IntraConstruction& c) { out = to_candidate(op, c); });
  return out;
}

std::optional<PrincipleCandidate> make_three_nra(const TensorOp& op, BufferSize bs,
                                                 int resident_tensor) {
  const MatmulShape s = flatten_matmul(op);
  FCU_CHECK(resident_tensor >= 0 && resident_tensor < 3, "tensor index out of range");
  std::optional<PrincipleCandidate> out;
  for_each_three_nra(s, bs, resident_tensor,
                     [&](const IntraConstruction& c) { out = to_candidate(op, c); });
  return out;
}

std::vector<PrincipleCandidate> principle_candidates(const TensorOp& op, BufferSize bs) {
  const MatmulShape s = flatten_matmul(op);
  std::vector<PrincipleCandidate> out;
  for_each_principle_candidate(
      s, bs, [&](const IntraConstruction& c) { out.push_back(to_candidate(op, c)); });
  return out;
}

NraKind optimal_regime(const MatmulShape& shape, BufferSize bs, const MatmulLabels& labels) {
  return static_cast<NraKind>(winner_nra(labels, shape, closed_form_winner(shape, bs)));
}

NraKind optimal_regime(const TensorOp& op, BufferSize bs) {
  const MatmulShape shape = flatten_matmul(op);
  return optimal_regime(shape, bs, labels_of(op));
}

IntraPlanRecord optimize_intra_record(const MatmulShape& shape, BufferSize bs,
                                      const MatmulLabels& labels) {
  ScopedSpan span("optimize/intra", FCU_HISTOGRAM("time/optimize/intra"));
  const IntraWinner best = closed_form_winner(shape, bs);
  FCU_COUNTER("principles/optimize_intra/calls").add();
  FCU_COUNTER("principles/optimize_intra/candidates").add(best.candidates);
  const int nra = winner_nra(labels, shape, best);

  IntraPlanRecord record;
  record.loop_order = best.construction.order;
  record.tile = best.construction.tile;
  record.per_tensor = best.per_tensor;
  record.total = best.total();
  record.footprint = best.footprint();
  record.rule = best.construction.rule;
  record.buffer_class = classify_buffer(shape, bs);
  record.nra = static_cast<NraKind>(nra);
  static const char* const kNraNames[] = {nullptr, "1", "2", "3"};
  static CounterFamily<4> winners("principles/optimize_intra/winner_nra_");
  winners.at(static_cast<std::size_t>(nra), kNraNames[nra]).add();
  if (span.recording()) span.note(rule_text(record.rule, labels).str().c_str());
  return record;
}

IntraOptResult materialize(const IntraPlanRecord& record, const MatmulLabels& labels) {
  IntraOptResult result;
  result.dataflow = to_dataflow(record.loop_order, record.tile);
  result.access.per_tensor.assign(record.per_tensor.begin(), record.per_tensor.end());
  result.access.total = record.total;
  result.access.buffer_footprint = record.footprint;
  result.nra = record.nra;
  result.buffer_class = record.buffer_class;
  result.rule = rule_text(record.rule, labels).str();
  return result;
}

IntraOptResult optimize_intra(const TensorOp& op, BufferSize bs) {
  const MatmulShape shape = flatten_matmul(op);  // before labels_of(): throws on any other op
  const MatmulLabels labels = labels_of(op);
  return materialize(optimize_intra_record(shape, bs, labels), labels);
}

AccessCount eq1_output_stationary_access(Index m, Index k, Index l, Index t_m, Index t_l) {
  return m * k * ceil_div(l, t_l) + k * l * ceil_div(m, t_m) + m * l;
}

AccessCount eq3_two_nra_access(Index m, Index k, Index l, Index t_m) {
  return k * l * ceil_div(m, t_m) + m * k + m * l;
}

}  // namespace fusecu
