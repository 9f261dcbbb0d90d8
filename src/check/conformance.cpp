#include "check/conformance.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "arch/dataflow_space.hpp"
#include "common/json_writer.hpp"
#include "fusion/fusion_principles.hpp"
#include "fusion/graph_planner.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "search/exhaustive.hpp"
#include "serve/plan_service.hpp"
#include "sim/tiled_executor.hpp"

namespace fusecu {

namespace {

/// splitmix64 step: decorrelates sub-draws (executor dataflow, arch spec)
/// from the workload seed without sharing the generator stream.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Checker {
 public:
  Checker(const Workload& w, const CheckOptions& opts, CheckReport* report)
      : w_(w), opts_(opts), report_(report) {}

  void fail(const std::string& check, const std::string& detail) {
    report_->failures.push_back({check, w_.to_string() + ": " + detail});
  }

  /// Expect lhs == rhs.
  template <typename T>
  void expect_eq(const std::string& check, const T& lhs, const T& rhs,
                 const std::string& what) {
    ++report_->checks_run;
    if (!(lhs == rhs)) {
      std::ostringstream os;
      os << what << " mismatch: " << lhs << " != " << rhs;
      fail(check, os.str());
    }
  }

  /// Expect lhs <= rhs.
  void expect_le(const std::string& check, AccessCount lhs, AccessCount rhs,
                 const std::string& what) {
    ++report_->checks_run;
    if (lhs > rhs) {
      std::ostringstream os;
      os << what << ": " << lhs << " > " << rhs;
      fail(check, os.str());
    }
  }

  void expect_true(const std::string& check, bool cond, const std::string& what) {
    ++report_->checks_run;
    if (!cond) fail(check, what);
  }

  const Workload& w_;
  const CheckOptions& opts_;
  CheckReport* report_;
};

/// "[a,b,c]" appended to \p out.
template <typename Range>
void append_dims(std::string& out, const Range& v) {
  out.push_back('[');
  bool first = true;
  for (const auto x : v) {
    if (!first) out.push_back(',');
    first = false;
    JsonWriter::append_int(out, x);
  }
  out.push_back(']');
}

std::string dims_to_string(const std::vector<Index>& v) {
  std::string out;
  append_dims(out, v);
  return out;
}

/// Random executable dataflow: tiles capped at the array edge so every
/// stationary mode fits, loop order uniform.
Dataflow gen_executor_dataflow(const TensorOp& op, Rng& rng, Index array_n) {
  static const std::vector<std::vector<int>> orders = {
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  Dataflow df;
  df.loop_order = orders[rng.pick(orders.size())];
  for (int d = 0; d < op.num_dims(); ++d) {
    df.tile.push_back(rng.uniform(1, std::min(op.extent(d), array_n)));
  }
  return df;
}

Index tile_visits(const TensorOp& op, const Dataflow& df) {
  Index visits = 1;
  for (int d = 0; d < op.num_dims(); ++d) visits *= df.trips(op, d);
  return visits;
}

// ---------------------------------------------------------------------------
// Intra-operator checks.

/// A small private service: one worker, one shard, 1 MiB of cache.
ServeOptions serve_check_options() {
  ServeOptions so;
  so.threads = 1;
  so.cache_bytes = 1 << 20;
  so.shards = 1;
  return so;
}

/// \p request answered by \p service through plan(), the request core a
/// served line takes: its key spelling, cache probe and record core.  An
/// error answer throws, as the direct optimizer it is checked against would.
PlanResponse plan_served(PlanService& service, const PlanRequest& request) {
  PlanResponse response = service.plan(request);
  if (!response.ok) throw std::runtime_error(response.error);
  return response;
}

PlanRequest intra_request(const TensorOp& op, Index m, Index l, BufferSize bs) {
  PlanRequest request;
  request.id = op.name();
  request.m = m;
  request.k = op.extent(mm::kDimK);
  request.l = l;
  request.buffer_elems = bs;
  return request;
}

/// Serve path: byte-identity of cached / canonicalized plans, on a private
/// PlanService.
void check_intra_serve(Checker& c, const TensorOp& op, BufferSize bs) {
  FCU_COUNTER("check/serve_checks").add();
  const Index m = op.extent(mm::kDimM), l = op.extent(mm::kDimL);
  const std::string direct = intra_plan_signature(optimize_intra(op, bs));
  TensorOp transposed = TensorOp::matmul("wl", l, op.extent(mm::kDimK), m);
  const std::string direct_t = intra_plan_signature(optimize_intra(transposed, bs));
  PlanService service(serve_check_options());
  const PlanResponse cold = plan_served(service, intra_request(op, m, l, bs));
  c.expect_true("serve/cold_uncached", !cold.cached, "first lookup claimed a cache hit");
  c.expect_eq("serve/byte_identity", intra_plan_signature(*cold.intra), direct,
              "served plan vs direct optimize_intra");
  const PlanResponse warm = plan_served(service, intra_request(op, m, l, bs));
  c.expect_true("serve/warm_cached", warm.cached, "second lookup missed the cache");
  c.expect_eq("serve/byte_identity", intra_plan_signature(*warm.intra), direct,
              "cached plan vs direct optimize_intra");
  const PlanResponse trans = plan_served(service, intra_request(op, l, m, bs));
  c.expect_eq("serve/transpose_identity", intra_plan_signature(*trans.intra), direct_t,
              "transposed request's plan vs direct optimize_intra of the transposed op");
}

void check_intra_workload(Checker& c, const TensorOp& op, BufferSize bs) {
  IntraOptResult principled = optimize_intra(op, bs);
  if (c.opts_.intra_mutator) c.opts_.intra_mutator(op, principled);

  // Self-consistency: the reported access/footprint must re-evaluate
  // identically, the dataflow must be valid and fit the buffer.
  validate_dataflow(op, principled.dataflow);
  AccessBreakdown re = evaluate_access(op, principled.dataflow);
  c.expect_eq("intra/self_consistent", re.total, principled.access.total, "re-evaluated total");
  c.expect_eq("intra/self_consistent", re.buffer_footprint, principled.access.buffer_footprint,
              "re-evaluated footprint");
  c.expect_le("intra/fits_buffer", principled.access.buffer_footprint, bs, "footprint > BS");

  // The paper's central claim: the one-shot construction matches or beats
  // ground-truth exhaustive search.
  auto searched = exhaustive_intra(op, bs);
  c.expect_true("intra/exhaustive_feasible", searched.has_value(),
                "exhaustive found nothing but principled plan exists");
  if (searched) {
    c.expect_le("intra/opt_vs_exhaustive", principled.access.total, searched->access.total,
                "principled MA above exhaustive optimum (rule " + principled.rule + ")");
    // Nothing, searched or constructed, may beat the analytical floor.
    const AccessCount floor = intra_traffic_lower_bound(op, bs);
    c.expect_le("intra/lower_bound", floor, searched->access.total,
                "exhaustive optimum below the Dinh-Demmel floor");
    c.expect_le("intra/lower_bound", floor, principled.access.total,
                "principled MA below the Dinh-Demmel floor");
  }

  // More buffer can never cost more accesses.
  if (bs / 2 >= 3) {
    IntraOptResult half = optimize_intra(op, bs / 2);
    c.expect_le("intra/monotone_in_bs", principled.access.total, half.access.total,
                "doubling the buffer increased MA");
  }

  // Principle 1-3 regime rules at the paper's prescribed probe points
  // (Sec. III-A4), guarded exactly like the table: deep-tiny => Single,
  // mid-medium => Two, comfortably-large => Three at the ideal minimum.
  const Index dmin = op.min_extent();
  const Index tmin = op.tensor_size(op.smallest_tensor());
  if (dmin >= 16) {
    IntraOptResult tiny = optimize_intra(op, dmin * dmin / 8);
    c.expect_true("intra/regime_tiny_single", tiny.nra == NraKind::kSingle,
                  std::string("deep-tiny probe won ") + to_string(tiny.nra));
    const BufferSize mid = (dmin * dmin / 2 + tmin) / 2 + dmin;
    if (mid > dmin * dmin / 2 && mid <= tmin) {
      IntraOptResult medium = optimize_intra(op, mid);
      c.expect_true("intra/regime_medium_two", medium.nra == NraKind::kTwo,
                    std::string("mid-medium probe won ") + to_string(medium.nra));
    }
  }
  {
    IntraOptResult large = optimize_intra(op, 2 * tmin + 2 * dmin);
    c.expect_true("intra/regime_large_three", large.nra == NraKind::kThree,
                  std::string("comfortably-large probe won ") + to_string(large.nra));
    c.expect_eq("intra/regime_large_three", large.access.total, op.ideal_min_access(),
                "large-buffer MA vs ideal minimum");
  }

  // Analytical model vs functional simulation: traffic must agree exactly,
  // per tensor, on a random executable schedule.
  if (c.opts_.with_executor) {
    Rng sub(mix64(c.w_.seed ^ 0x5eedf00dull));
    Dataflow df = gen_executor_dataflow(op, sub, c.opts_.array_n);
    if (tile_visits(op, df) <= c.opts_.max_tile_visits) {
      FCU_COUNTER("check/executor_runs").add();
      Matrix a = make_test_matrix(op.extent(mm::kDimM), op.extent(mm::kDimK),
                                  mix64(c.w_.seed) ^ 1);
      Matrix b = make_test_matrix(op.extent(mm::kDimK), op.extent(mm::kDimL),
                                  mix64(c.w_.seed) ^ 2);
      ComputeUnit cu(c.opts_.array_n);
      TiledExecutionResult run = execute_tiled(op, df, a, b, cu);
      AccessBreakdown model = evaluate_access(op, df);
      c.expect_eq("intra/executor_traffic", run.total_traffic, model.total,
                  "simulated vs modeled total traffic (" + df.to_string(op) + ")");
      for (int t = 0; t < op.num_tensors(); ++t) {
        c.expect_eq("intra/executor_traffic",
                    run.traffic_per_tensor[static_cast<std::size_t>(t)],
                    model.per_tensor[static_cast<std::size_t>(t)],
                    "simulated vs modeled traffic of " + op.tensor(t).name);
      }
      c.expect_true("intra/executor_output", run.output == matmul_reference(a, b),
                    "executed output differs from reference matmul");
      // Fidelity contract: on small schedules, re-execute cycle by cycle
      // and require the functional fast path to have been bit-identical —
      // same output bits, same cycle count, same array-edge traffic.
      if (tile_visits(op, df) <= 64) {
        ComputeUnit ref(c.opts_.array_n);
        ref.set_fidelity(SimFidelity::kCycleAccurate);
        TiledExecutionResult slow = execute_tiled(op, df, a, b, ref);
        c.expect_true("intra/fastpath_vs_stepper", run.output == slow.output,
                      "functional output differs from stepper (" + df.to_string(op) + ")");
        c.expect_eq("intra/fastpath_vs_stepper", run.compute_cycles, slow.compute_cycles,
                    "functional vs stepper cycle count");
        c.expect_eq("intra/fastpath_vs_stepper", cu.input_traffic(), ref.input_traffic(),
                    "functional vs stepper input traffic");
        c.expect_eq("intra/fastpath_vs_stepper", cu.output_traffic(), ref.output_traffic(),
                    "functional vs stepper output traffic");
        c.expect_eq("intra/fastpath_vs_stepper", cu.preload_traffic(), ref.preload_traffic(),
                    "functional vs stepper preload traffic");
      }
    } else {
      FCU_COUNTER("check/executor_skips").add();
    }
  }

  // Arch-constrained optimizer: deterministic, in-budget, tile-legal.
  if (c.opts_.with_arch) {
    Rng sub(mix64(c.w_.seed ^ 0xa5c4a5c4ull));
    ArchSpec arch = gen_arch_spec(sub);
    ArchIntraOpt r1 = optimize_intra_for_arch(op, arch);
    ArchIntraOpt r2 = optimize_intra_for_arch(op, arch);
    c.expect_eq("arch/deterministic", dims_to_string(r1.dataflow.tile),
                dims_to_string(r2.dataflow.tile),
                "arch plan tiles across two runs (" + arch.name + ")");
    c.expect_eq("arch/deterministic", r1.access.total, r2.access.total,
                "arch plan MA across two runs (" + arch.name + ")");
    c.expect_le("arch/fits_buffer", r1.access.buffer_footprint, arch.buffer_elements(),
                "arch plan footprint > platform buffer (" + arch.name + ")");
    for (int d = 0; d < op.num_dims(); ++d) {
      const Index t = r1.dataflow.tile[static_cast<std::size_t>(d)];
      c.expect_eq("arch/tile_legal", legalize_tile(t, op.extent(d), arch.tile_granularity()), t,
                  "tile of " + op.dim(d).name + " vs granularity on " + arch.name);
    }
    // The platform-constrained optimum can never beat the unconstrained one.
    c.expect_le("arch/vs_unconstrained",
                optimize_intra(op, arch.buffer_elements()).access.total, r1.access.total,
                "unconstrained MA above " + arch.name + "'s constrained MA");
  }

  if (c.opts_.with_serve) check_intra_serve(c, op, bs);
}

// ---------------------------------------------------------------------------
// Fused-pair checks.

/// Serve path byte-identity for fused plans, on a private PlanService,
/// against \p direct_plan, the trial's own optimize_fused_pair result.
void check_fused_serve(Checker& c, const FusedPair& pair, BufferSize bs,
                       const std::optional<FusedOptResult>& direct_plan) {
  FCU_COUNTER("check/serve_checks").add();
  const std::string direct = fused_plan_signature(direct_plan);
  PlanService service(serve_check_options());
  PlanRequest request;
  request.id = "pair";
  request.kind = PlanRequest::Kind::kFusedPair;
  request.m = pair.m();
  request.k = pair.k();
  request.l = pair.l();
  request.n = pair.n();
  request.buffer_elems = bs;
  const PlanResponse cold = plan_served(service, request);
  c.expect_eq("serve/fused_byte_identity", fused_plan_signature(cold.fused), direct,
              "served fused plan vs direct optimize_fused_pair");
  const PlanResponse warm = plan_served(service, request);
  c.expect_true("serve/warm_cached", warm.cached, "second fused lookup missed the cache");
  c.expect_eq("serve/fused_byte_identity", fused_plan_signature(warm.fused), direct,
              "cached fused plan vs direct optimize_fused_pair");
}

void check_fused_workload(Checker& c, const FusedPair& pair, BufferSize bs) {
  auto fopt = optimize_fused_pair(pair, bs);
  auto fexh = exhaustive_fused(pair, bs);
  c.expect_eq("fused/feasibility_agreement", fopt.has_value(), fexh.has_value(),
              "principled vs exhaustive fused feasibility");
  if (fopt && fexh) {
    c.expect_le("fused/opt_vs_exhaustive", fopt->access.total, fexh->access.total,
                "principled fused MA above exhaustive optimum (rule " + fopt->chosen.rule + ")");
    const AccessCount floor = fused_traffic_lower_bound(pair);
    c.expect_le("fused/lower_bound", floor, fexh->access.total,
                "exhaustive fused MA below the externals-once floor");
    c.expect_le("fused/lower_bound", floor, fopt->access.total,
                "principled fused MA below the externals-once floor");
    c.expect_le("fused/fits_buffer", fopt->access.buffer_footprint, bs,
                "fused footprint > BS");
    // Self-consistency: re-pricing the chosen configuration reproduces it.
    FusedAccess re = fopt->chosen.phased ? evaluate_phased(pair, *fopt->chosen.phased)
                                         : evaluate_resident(pair, *fopt->chosen.resident);
    c.expect_eq("fused/self_consistent", re.total, fopt->access.total,
                "re-evaluated fused total");
  }

  // Principle 4 and the fuse-or-not decision must tell one coherent story.
  FusionDecision d = decide_fusion(pair, bs);
  c.expect_eq("fused/decision_consistent", d.fusable, fopt.has_value(), "fusable flag");
  c.expect_eq("fused/principle4_predicate", d.principle4_predicts, same_nra_regime(pair, bs),
              "Principle-4 prediction vs regime predicate");
  if (fopt) {
    c.expect_eq("fused/decision_consistent", d.fused_ma, fopt->access.total, "decision fused MA");
    c.expect_eq("fused/decision_consistent", d.unfused_ma, unfused_pair_access(pair, bs),
                "decision unfused MA");
    c.expect_eq("fused/decision_consistent", d.profitable, d.fused_ma < d.unfused_ma,
                "profitability flag");
  }

  // Fused functional simulation vs the phased analytical model.
  if (c.opts_.with_executor && pair.m() <= 2 * c.opts_.array_n &&
      pair.l() <= c.opts_.array_n && pair.k() <= 2 * c.opts_.array_n &&
      pair.n() <= 2 * c.opts_.array_n) {
    Rng sub(mix64(c.w_.seed ^ 0xf0e1d2c3ull));
    PhasedFusedDataflow df;
    df.t_m = sub.uniform(1, std::min(pair.m(), c.opts_.array_n));
    df.t_k = sub.uniform(1, pair.k());
    df.t_l = sub.uniform(1, std::min(pair.l(), c.opts_.array_n));
    df.t_n = sub.uniform(1, pair.n());
    df.l_outer = sub.chance(0.5);
    FCU_COUNTER("check/executor_runs").add();
    Matrix a = make_test_matrix(pair.m(), pair.k(), mix64(c.w_.seed) ^ 3);
    Matrix b = make_test_matrix(pair.k(), pair.l(), mix64(c.w_.seed) ^ 4);
    Matrix dmat = make_test_matrix(pair.l(), pair.n(), mix64(c.w_.seed) ^ 5);
    FuseCuQuad quad(c.opts_.array_n);
    FusedExecutionResult run = execute_fused_phased(pair, df, a, b, dmat, quad);
    FusedAccess model = evaluate_phased(pair, df);
    c.expect_eq("fused/executor_traffic", run.total_traffic, model.total,
                "simulated vs modeled fused traffic (" + df.to_string() + ")");
    c.expect_eq("fused/executor_traffic", run.traffic_c, AccessCount{0},
                "intermediate spilled to memory");
    c.expect_true("fused/executor_output",
                  run.output == matmul_reference(matmul_reference(a, b), dmat),
                  "fused execution differs from reference (A*B)*D");
  }

  if (c.opts_.with_serve) check_fused_serve(c, pair, bs, fopt);
}

// ---------------------------------------------------------------------------
// Chain checks.

void check_chain_workload(Checker& c, const ChainSpec& chain, BufferSize bs) {
  OperatorGraph direct = chain.direct();
  OperatorGraph with_ew = chain.with_elementwise();

  GraphPlan pd = plan_graph(direct, bs, PlannerPolicy::kCostOnly, 3);
  GraphPlan pe = plan_graph(with_ew, bs, PlannerPolicy::kCostOnly, 3);

  // Pointwise epilogues are free: they may never change the chain cost.
  c.expect_eq("chain/pointwise_invariant", pe.total_access, pd.total_access,
              "chain cost with vs without pointwise ops");
  c.expect_eq("chain/pointwise_invariant", pe.elementwise_access, AccessCount{0},
              "non-absorbed pointwise traffic");
  c.expect_eq("chain/pointwise_invariant", static_cast<AccessCount>(pe.spilled_rowwise),
              AccessCount{0}, "spilled row-wise ops in a pointwise-only chain");

  // Floors and ceilings: a plan can never beat perfect fusion, and the DP
  // includes the all-solo partition so it can never lose to it.
  c.expect_le("chain/lower_bound", direct.ideal_min_access_fused(), pd.total_access,
              "chain plan below the perfect-fusion floor");
  AccessCount solo_sum = 0;
  for (const TensorOp& op : direct.ops()) solo_sum += optimize_intra(op, bs).access.total;
  c.expect_le("chain/vs_all_solo", pd.total_access, solo_sum,
              "chain plan above the all-solo partition");

  // Determinism.
  GraphPlan pd2 = plan_graph(direct, bs, PlannerPolicy::kCostOnly, 3);
  c.expect_eq("chain/deterministic", pd2.total_access, pd.total_access,
              "chain cost across two planning runs");
}

}  // namespace

// ---------------------------------------------------------------------------

bool CheckReport::has_failure(const std::string& check) const {
  for (const CheckFailure& f : failures) {
    if (f.check == check) return true;
  }
  return false;
}

std::string CheckReport::summary() const {
  std::ostringstream os;
  os << checks_run << " checks, " << failures.size() << " failure(s)";
  for (const CheckFailure& f : failures) {
    os << "\n  [" << f.check << "] " << f.detail;
  }
  return os.str();
}

AccessCount fused_traffic_lower_bound(const FusedPair& pair) {
  return pair.ideal_min_access();
}

std::string intra_plan_signature(const IntraOptResult& r) {
  std::string out = "rule=";
  out.append(r.rule).append(" nra=");
  JsonWriter::append_int(out, static_cast<int>(r.nra));
  out.append(" class=").append(to_string(r.buffer_class)).append(" order=");
  append_dims(out, r.dataflow.loop_order);
  out.append(" tile=");
  append_dims(out, r.dataflow.tile);
  out.append(" per_tensor=");
  append_dims(out, r.access.per_tensor);
  out.append(" total=");
  JsonWriter::append_int(out, r.access.total);
  out.append(" footprint=");
  JsonWriter::append_int(out, r.access.buffer_footprint);
  return out;
}

std::string fused_plan_signature(const std::optional<FusedOptResult>& r) {
  if (!r) return "unfusable";
  std::string out = "rule=";
  out.append(r->chosen.rule).append(" r1=");
  JsonWriter::append_int(out, static_cast<int>(r->regime1));
  out.append(" r2=");
  JsonWriter::append_int(out, static_cast<int>(r->regime2));
  out.append(" op1=");
  JsonWriter::append_int(out, r->access.op1_external);
  out.append(" op2=");
  JsonWriter::append_int(out, r->access.op2_external);
  out.append(" total=");
  JsonWriter::append_int(out, r->access.total);
  out.append(" footprint=");
  JsonWriter::append_int(out, r->access.buffer_footprint);
  if (r->chosen.phased) {
    const PhasedFusedDataflow& p = *r->chosen.phased;
    out.append(" phased{");
    for (const Index t : {p.t_m, p.t_k, p.t_l, p.t_n}) {
      JsonWriter::append_int(out, t);
      out.push_back(',');
    }
    out.append(p.l_outer ? "L}" : "M}");
  }
  if (r->chosen.resident) {
    out.append(" resident{");
    append_dims(out, r->chosen.resident->df1.tile);
    out.push_back(',');
    append_dims(out, r->chosen.resident->df2.tile);
    out.push_back('}');
  }
  return out;
}

CheckReport check_workload(const Workload& w, const CheckOptions& opts) {
  static CounterFamily<4> regimes("check/regime/");
  CheckReport report;
  Checker c(w, opts, &report);

  // One span per trial: everything the trial touches (optimizers, the
  // executor, the serve path) nests under it, so a flight-recorder dump
  // taken on failure shows the failing trial's full tree.
  ScopedSpan trial_span("check/trial");
  trial_span.note(w.to_string().c_str());

  FCU_COUNTER("check/trials").add();
  try {
    switch (w.kind) {
      case WorkloadKind::kIntra: {
        TensorOp op = w.intra_op();
        report.buffer_class = classify_buffer(op, w.bs);
        check_intra_workload(c, op, w.bs);
        break;
      }
      case WorkloadKind::kFused: {
        FusedPair pair = w.fused_pair();
        report.buffer_class = classify_buffer(matmul_shape(pair.m(), pair.k(), pair.l()), w.bs);
        check_fused_workload(c, pair, w.bs);
        break;
      }
      case WorkloadKind::kChain: {
        report.buffer_class = classify_buffer(w.chain.direct().op(0), w.bs);
        check_chain_workload(c, w.chain, w.bs);
        break;
      }
    }
  } catch (const std::exception& e) {
    c.fail("exception", std::string("unexpected throw: ") + e.what());
  }

  if (report.buffer_class) {
    const BufferClass cls = *report.buffer_class;
    regimes.at(static_cast<std::size_t>(cls), to_string(cls)).add();
  }
  FCU_COUNTER("check/checks_run").add(report.checks_run);
  if (!report.ok()) {
    FCU_COUNTER("check/failed_trials").add();
    FCU_COUNTER("check/failures").add(static_cast<std::int64_t>(report.failures.size()));
    for (const CheckFailure& f : report.failures) {
      log_error("check", f.detail, {{"check", f.check}, {"workload", w.to_string()}});
    }
  }
  return report;
}

}  // namespace fusecu
