#include "arch/dataflow_space.hpp"

#include <algorithm>
#include <string>
#include <string_view>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "fusion/fusion_principles.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace fusecu {

namespace {

/// The dimension of a matmul-shaped op not indexing tensor \p t.
int other_dim_of(const TensorOp& op, int t) {
  for (int d = 0; d < op.num_dims(); ++d) {
    if (!op.tensor_has_dim(t, d)) return d;
  }
  FCU_ASSERT_INTERNAL(false, "matmul tensor must omit exactly one dim");
}

/// Spatial tile of the PE-resident tensor: the tensor with the largest tile
/// footprint under \p df (the paper's "stationary tile", Fig. 5).
std::pair<Index, Index> spatial_tile_of(const TensorOp& op, const Dataflow& df) {
  int best = 0;
  for (int t = 1; t < op.num_tensors(); ++t) {
    if (df.tensor_tile_size(op, t) > df.tensor_tile_size(op, best)) best = t;
  }
  const auto& dims = op.tensor(best).dims;
  const Index r = std::min(df.tile[static_cast<std::size_t>(dims[0])], op.extent(dims[0]));
  const Index c = std::min(df.tile[static_cast<std::size_t>(dims[1])], op.extent(dims[1]));
  return {r, c};
}

struct Candidate {
  Dataflow df;
  /// The rule string is rule_head + rule_tail, joined for the winner only:
  /// a losing candidate never builds its string.  Both views outlive the
  /// candidate list (literals, stationarity names, the principled
  /// candidates' rules and the "@<arch>" suffix held by the caller).
  std::string_view rule_head;
  std::string_view rule_tail;
  /// Explicit PE-resident tile; (0, 0) means "derive from the dataflow".
  Index spatial_rows = 0;
  Index spatial_cols = 0;
};

/// Low-flexibility candidates: the resident tensor's tile is locked to the
/// array shape.  Two schedule families are still software-reachable:
///  * *stream* — resident dims outer, third dimension streams (unit tile);
///  * *staged* — the third dimension is staged in the buffer (maximized
///    tile, outermost loop), trading resident-tensor refetches for
///    streaming-tensor reuse.  This keeps the rigid platforms honest at
///    larger buffer sizes without granting them tile-shape freedom.
void add_fixed_array_candidates(std::vector<Candidate>& out, const TensorOp& op,
                                const ArchSpec& arch) {
  for (Stationarity s : arch.stationarities) {
    const int resident = resident_tensor_for(s);
    const int d1 = op.tensor(resident).dims[0];
    const int d2 = op.tensor(resident).dims[1];
    const int d3 = other_dim_of(op, resident);
    const Index t1 = std::min(op.extent(d1), arch.unit_rows);
    const Index t2 = std::min(op.extent(d2), arch.unit_cols);

    Dataflow stream;
    stream.tile.assign(3, 1);
    stream.loop_order = {d1, d2, d3};
    stream.tile[static_cast<std::size_t>(d1)] = t1;
    stream.tile[static_cast<std::size_t>(d2)] = t2;
    out.push_back({stream, "fixed-array ", to_string(s), t1, t2});

    // Staged variants: footprint = (t1 + t2) * T3 + t1 * t2.
    const BufferSize bs = arch.buffer_elements();
    if (bs > t1 * t2 + t1 + t2) {
      const Index t3 = clamp_index((bs - t1 * t2) / (t1 + t2), 1, op.extent(d3));
      for (const auto& order : {std::vector<int>{d3, d1, d2}, std::vector<int>{d3, d2, d1}}) {
        Dataflow staged = stream;
        staged.loop_order = order;
        staged.tile[static_cast<std::size_t>(d3)] = t3;
        out.push_back({staged, "fixed-array-staged ", to_string(s), t1, t2});
      }
    }
  }
}

/// Flexible candidates: the \p principled constructions legalized to the
/// platform granularity, filtered so a Single-NRA stationary is
/// PE-supportable.  Each one's rule is its principle rule + \p at_arch.
void add_flexible_candidates(std::vector<Candidate>& out, const TensorOp& op,
                             const ArchSpec& arch,
                             const std::vector<PrincipleCandidate>& principled,
                             std::string_view at_arch) {
  const Index g = arch.tile_granularity();
  for (const PrincipleCandidate& c : principled) {
    Dataflow df = c.dataflow;
    for (int d = 0; d < op.num_dims(); ++d) {
      df.tile[static_cast<std::size_t>(d)] =
          legalize_tile(df.tile[static_cast<std::size_t>(d)], op.extent(d), g);
    }
    if (df.buffer_footprint(op) > arch.buffer_elements()) continue;
    const int st = stationary_tensor(op, df);
    if (st >= 0) {
      bool supported = false;
      for (Stationarity s : arch.stationarities) {
        if (resident_tensor_for(s) == st) supported = true;
      }
      if (!supported) continue;
    }
    out.push_back({df, c.rule, at_arch});
  }
}

/// Fallback: the minimal schedule for the platform's first stationarity —
/// always feasible once three elements fit.
void add_fallback_candidate(std::vector<Candidate>& out, const TensorOp& op,
                            const ArchSpec& arch) {
  FCU_ASSERT_INTERNAL(!arch.stationarities.empty(), "platform without stationarity");
  const int resident = resident_tensor_for(*arch.stationarities.begin());
  const int d1 = op.tensor(resident).dims[0];
  const int d2 = op.tensor(resident).dims[1];
  Dataflow df;
  df.tile.assign(3, 1);
  df.loop_order = {d1, d2, other_dim_of(op, resident)};
  out.push_back({df, "fallback-minimal", ""});
}

}  // namespace

int resident_tensor_for(Stationarity s) {
  switch (s) {
    case Stationarity::kInput:
      return mm::kTensorA;
    case Stationarity::kWeight:
      return mm::kTensorB;
    case Stationarity::kOutput:
      return mm::kTensorC;
  }
  FCU_ASSERT_INTERNAL(false, "unknown stationarity");
}

Index legalize_tile(Index tile, Index extent, Index granularity) {
  FCU_CHECK(granularity >= 1, "granularity must be positive");
  if (tile >= extent) return extent;
  if (tile <= 1) return 1;
  return std::max<Index>(1, round_down(tile, granularity));
}

ArchIntraOpt optimize_intra_for_arch(const TensorOp& op, const ArchSpec& arch) {
  require_matmul_shape(op);
  ScopedSpan span("optimize/intra_for_arch", FCU_HISTOGRAM("time/optimize/intra_for_arch"));
  const BufferSize bs = arch.buffer_elements();
  FCU_CHECK(bs >= 3, "platform buffer cannot hold the minimal working set");

  std::vector<Candidate> candidates;
  std::vector<PrincipleCandidate> principled;
  const std::string at_arch = "@" + arch.name;
  if (arch.tiling_flex == TilingFlexibility::kLow) {
    add_fixed_array_candidates(candidates, op, arch);
  } else {
    principled = principle_candidates(op, bs);
    add_flexible_candidates(candidates, op, arch, principled, at_arch);
  }
  add_fallback_candidate(candidates, op, arch);

  ArchIntraOpt best;
  const Candidate* winner = nullptr;
  for (const Candidate& c : candidates) {
    if (c.df.buffer_footprint(op) > bs) continue;
    AccessBreakdown b = evaluate_access(op, c.df);
    if (winner == nullptr || b.total < best.access.total) {
      winner = &c;
      best.access = b;
    }
  }
  FCU_ASSERT_INTERNAL(winner != nullptr, "fallback candidate must always fit");
  FCU_COUNTER("arch/optimize_intra/calls").add();
  FCU_COUNTER("arch/optimize_intra/candidates").add(static_cast<std::int64_t>(candidates.size()));
  best.dataflow = winner->df;
  best.rule.reserve(winner->rule_head.size() + winner->rule_tail.size());
  best.rule.append(winner->rule_head).append(winner->rule_tail);
  if (winner->spatial_rows > 0 && winner->spatial_cols > 0) {
    best.spatial_rows = winner->spatial_rows;
    best.spatial_cols = winner->spatial_cols;
  } else {
    auto [r, cidx] = spatial_tile_of(op, best.dataflow);
    best.spatial_rows = r;
    best.spatial_cols = cidx;
  }
  span.note(best.rule.c_str());
  return best;
}

int ArchPlan::fused_pair_count() const {
  int count = 0;
  for (const ArchPlanStep& s : steps) {
    if (s.fused) ++count;
  }
  return count;
}

namespace {

/// Arch-constrained fused-pair optimum: principled fused candidates with
/// tiles legalized to the platform granularity.
std::optional<ArchPlanStep> optimize_fused_for_arch(const FusedPair& pair, const ArchSpec& arch,
                                                    int first_op_index) {
  ScopedSpan span("optimize_fused_for_arch", FCU_HISTOGRAM("time/optimize_fused_for_arch"));
  FCU_COUNTER("arch/optimize_fused/calls").add();
  const BufferSize bs = arch.buffer_elements();
  const Index g = arch.tile_granularity();
  std::optional<FusedAccess> best;
  PhasedFusedDataflow best_df;
  const std::string* best_rule = nullptr;  // into candidates, copied for the winner only
  bool best_is_phased = true;
  ResidentFusedDataflow best_resident;

  const std::vector<FusedCandidate> candidates = fused_principle_candidates(pair, bs);
  for (const FusedCandidate& c : candidates) {
    if (c.phased) {
      PhasedFusedDataflow df = *c.phased;
      df.t_m = legalize_tile(df.t_m, pair.m(), g);
      df.t_k = legalize_tile(df.t_k, pair.k(), g);
      df.t_l = legalize_tile(df.t_l, pair.l(), g);
      df.t_n = legalize_tile(df.t_n, pair.n(), g);
      FusedAccess a = evaluate_phased(pair, df);
      if (a.buffer_footprint > bs) continue;
      if (!best || a.total < best->total) {
        best = a;
        best_df = df;
        best_rule = &c.rule;
        best_is_phased = true;
      }
    } else {
      ResidentFusedDataflow rf = *c.resident;
      const std::array<Index, 3> extent1 = pair.op1_extents();
      const std::array<Index, 3> extent2 = pair.op2_extents();
      for (std::size_t d = 0; d < 3; ++d) {
        rf.df1.tile[d] = legalize_tile(rf.df1.tile[d], extent1[d], g);
        rf.df2.tile[d] = legalize_tile(rf.df2.tile[d], extent2[d], g);
      }
      FusedAccess a = evaluate_resident(pair, rf);
      if (a.buffer_footprint > bs) continue;
      if (!best || a.total < best->total) {
        best = a;
        best_resident = rf;
        best_rule = &c.rule;
        best_is_phased = false;
      }
    }
  }
  if (!best) return std::nullopt;

  ArchPlanStep step;
  step.op_indices = {first_op_index, first_op_index + 1};
  step.fused = true;
  step.access = best->total;
  step.macs = pair.m() * pair.k() * pair.l() + pair.m() * pair.l() * pair.n();
  step.rule = "fused " + *best_rule + "@" + arch.name;
  if (best_is_phased) step.fused_phased = best_df;
  if (best_is_phased) {
    // PE-resident tile: the largest of the A / C / E tiles (tile fusion
    // keeps C, column fusion keeps the producer input / consumer output).
    const std::pair<Index, Index> tiles[] = {{best_df.t_m, best_df.t_k},
                                             {best_df.t_m, best_df.t_l},
                                             {best_df.t_m, best_df.t_n}};
    auto largest = std::max_element(std::begin(tiles), std::end(tiles),
                                    [](const auto& a, const auto& b) {
                                      return a.first * a.second < b.first * b.second;
                                    });
    step.spatial_rows = largest->first;
    step.spatial_cols = largest->second;
  } else {
    step.spatial_rows = pair.m();
    step.spatial_cols = pair.l();
  }
  return step;
}

}  // namespace

ArchPlan plan_chain_for_arch(const OperatorGraph& graph, const ArchSpec& arch) {
  FCU_CHECK(graph.num_ops() >= 1, "empty chain");
  FCU_CHECK(graph.is_linear_chain(), "platform planner requires a linear chain");
  ScopedSpan span("plan_chain_for_arch", FCU_HISTOGRAM("time/plan_chain_for_arch"));
  FCU_COUNTER("arch/plan_chain/calls").add();
  FCU_COUNTER("arch/plan_chain/ops").add(graph.num_ops());

  const int n = graph.num_ops();
  std::vector<ArchPlanStep> solo(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ArchIntraOpt r = optimize_intra_for_arch(graph.op(i), arch);
    ArchPlanStep& s = solo[static_cast<std::size_t>(i)];
    s.op_indices = {i};
    s.fused = false;
    s.access = r.access.total;
    s.macs = graph.op(i).macs();
    s.spatial_rows = r.spatial_rows;
    s.spatial_cols = r.spatial_cols;
    s.rule = r.rule;
    s.dataflow = r.dataflow;
  }
  std::vector<std::optional<ArchPlanStep>> paired(static_cast<std::size_t>(n));
  if (arch.supports_fusion) {
    for (int i = 0; i + 1 < n; ++i) {
      std::optional<FusedPair> pair = try_make_fused_pair(graph.op(i), graph.op(i + 1));
      if (!pair) continue;
      paired[static_cast<std::size_t>(i)] = optimize_fused_for_arch(*pair, arch, i);
    }
  }

  auto group_cost = [&](int first, int len) -> std::optional<AccessCount> {
    if (len == 1) return solo[static_cast<std::size_t>(first)].access;
    const std::optional<ArchPlanStep>& pair = paired[static_cast<std::size_t>(first)];
    return pair ? std::optional<AccessCount>(pair->access) : std::nullopt;
  };
  ArchPlan plan;
  for (const ChainGroup& g : partition_chain(n, 2, group_cost)) {
    plan.steps.push_back(g.len == 1 ? solo[static_cast<std::size_t>(g.first)]
                                    : *paired[static_cast<std::size_t>(g.first)]);
    plan.total_access += g.access;
  }
  for (const ArchPlanStep& s : plan.steps) plan.total_macs += s.macs;
  FCU_COUNTER("arch/plan_chain/pairs_fused").add(plan.fused_pair_count());
  return plan;
}

}  // namespace fusecu
