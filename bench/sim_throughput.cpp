/// \file sim_throughput.cpp
/// Per-layer throughput benchmark for the perf-critical simulation and
/// search paths, with built-in equivalence assertions:
///
///  * layer 1 — ComputeUnit passes: the cycle-by-cycle stepper vs the
///    functional fast path, per mode (WS/OS/IS/IS-resident/tile fusion),
///    asserting bit-identical outputs, cycles and traffic while timing;
///  * layer 2 — the exhaustive oracle: kFull vs kPruned over generated
///    workloads, asserting byte-identical argmin plans;
///  * layer 3 — the conformance harness: run_conformance at --jobs 1 vs
///    --jobs <hw threads>, asserting identical aggregate results.
///
/// All timings and speedup ratios are published through the shared
/// --bench-out flag (BENCH_sim_throughput.json in CI), so the perf
/// trajectory of each layer is archived per commit.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/gen.hpp"
#include "check/harness.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "obs/obs_session.hpp"
#include "search/exhaustive.hpp"
#include "sim/compute_unit.hpp"

namespace fusecu {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void require(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "sim_throughput: equivalence violated: %s\n", what);
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Layer 1: pass kernels
// ---------------------------------------------------------------------------

struct PassShape {
  Index m, k, l, n2;  // n2 = D columns for tile fusion
};

std::vector<PassShape> pass_shapes(Rng& rng, int count, Index array_n) {
  std::vector<PassShape> shapes;
  shapes.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    PassShape s;
    s.m = gen_extent(rng, array_n);
    s.k = gen_extent(rng, array_n);
    s.l = gen_extent(rng, array_n);
    s.n2 = gen_extent(rng, 2 * array_n);
    shapes.push_back(s);
  }
  return shapes;
}

struct PassTotals {
  double checksum = 0;
  CycleCount cycles = 0;
  AccessCount input = 0, output = 0, preload = 0;

  bool operator==(const PassTotals& o) const {
    return checksum == o.checksum && cycles == o.cycles && input == o.input &&
           output == o.output && preload == o.preload;
  }
};

template <typename PassFn>
PassTotals run_passes(ComputeUnit& cu, SimFidelity fidelity,
                      const std::vector<PassShape>& shapes, PassFn&& pass) {
  cu.set_fidelity(fidelity);
  cu.reset_traffic();
  PassTotals totals;
  int next = 7;
  for (const PassShape& s : shapes) {
    ComputeUnit::RunResult r = pass(cu, s, next);
    totals.cycles += r.cycles;
    for (Index i = 0; i < r.output.rows(); ++i) {
      const double* row = r.output.row(i);
      for (Index j = 0; j < r.output.cols(); ++j) totals.checksum += row[j];
    }
  }
  totals.input = cu.input_traffic();
  totals.output = cu.output_traffic();
  totals.preload = cu.preload_traffic();
  return totals;
}

struct ModeResult {
  std::string name;
  double stepped_s = 0;
  double fast_s = 0;
};

template <typename PassFn>
ModeResult bench_mode(const char* name, Index array_n, const std::vector<PassShape>& shapes,
                      PassFn&& pass) {
  ModeResult r;
  r.name = name;
  ComputeUnit cu(array_n);

  Clock::time_point t0 = Clock::now();
  PassTotals stepped = run_passes(cu, SimFidelity::kCycleAccurate, shapes, pass);
  r.stepped_s = seconds_since(t0);

  t0 = Clock::now();
  PassTotals fast = run_passes(cu, SimFidelity::kFunctional, shapes, pass);
  r.fast_s = seconds_since(t0);

  require(stepped == fast, name);
  return r;
}

std::vector<ModeResult> bench_passes(ObsSession& obs) {
  const Index array_n = 16;
  const int reps = 400;
  Rng rng(2026);
  const std::vector<PassShape> shapes = pass_shapes(rng, reps, array_n);

  auto make = [](Index rows, Index cols, int& next) {
    Matrix m = make_test_matrix(rows, cols, next);
    next += static_cast<int>(rows * cols);
    return m;
  };

  std::vector<ModeResult> results;
  results.push_back(bench_mode("ws", array_n, shapes,
                               [&](ComputeUnit& cu, const PassShape& s, int& next) {
                                 Matrix a = make(s.m, s.k, next), b = make(s.k, s.l, next);
                                 return cu.run_ws(a, b);
                               }));
  results.push_back(bench_mode("os", array_n, shapes,
                               [&](ComputeUnit& cu, const PassShape& s, int& next) {
                                 Matrix a = make(s.m, s.k, next), b = make(s.k, s.l, next);
                                 return cu.run_os(a, b);
                               }));
  results.push_back(bench_mode("is", array_n, shapes,
                               [&](ComputeUnit& cu, const PassShape& s, int& next) {
                                 Matrix a = make(s.m, s.k, next), b = make(s.k, s.l, next);
                                 return cu.run_is(a, b);
                               }));
  results.push_back(bench_mode("tile_fusion", array_n, shapes,
                               [&](ComputeUnit& cu, const PassShape& s, int& next) {
                                 Matrix a = make(s.m, s.k, next), b = make(s.k, s.l, next);
                                 Matrix d = make(s.l, s.n2, next);
                                 return cu.run_tile_fusion(a, b, d);
                               }));

  std::printf("layer 1: ComputeUnit passes (N=%d, %d passes/mode)\n",
              static_cast<int>(array_n), reps);
  for (const ModeResult& r : results) {
    const double speedup = r.stepped_s / r.fast_s;
    std::printf("  %-12s stepper %8.4fs  fastpath %8.4fs  %6.1fx  (bit-identical)\n",
                r.name.c_str(), r.stepped_s, r.fast_s, speedup);
    obs.record_bench_value("pass_" + r.name + "_stepper_s", r.stepped_s);
    obs.record_bench_value("pass_" + r.name + "_fastpath_s", r.fast_s);
    obs.record_bench_value("pass_" + r.name + "_speedup", speedup);
  }
  return results;
}

// ---------------------------------------------------------------------------
// Layer 2: exhaustive oracle
// ---------------------------------------------------------------------------

std::string intra_sig(const std::optional<IntraSearchResult>& r) {
  if (!r) return "none";
  std::ostringstream os;
  for (int d : r->dataflow.loop_order) os << d << ".";
  os << "|";
  for (Index t : r->dataflow.tile) os << t << ".";
  os << "|";
  for (AccessCount a : r->access.per_tensor) os << a << ".";
  os << "|" << r->access.total << "|" << r->access.buffer_footprint;
  return os.str();
}

std::string fused_sig(const std::optional<FusedSearchResult>& r) {
  if (!r) return "none";
  std::ostringstream os;
  os << r->access.op1_external << "|" << r->access.op2_external << "|" << r->access.total
     << "|" << r->access.buffer_footprint;
  if (r->phased) {
    os << "|phased{" << r->phased->t_m << "," << r->phased->t_k << "," << r->phased->t_l
       << "," << r->phased->t_n << "," << (r->phased->l_outer ? "L" : "M") << "}";
  }
  if (r->resident) {
    os << "|resident{";
    for (Index t : r->resident->df1.tile) os << t << ".";
    os << ",";
    for (Index t : r->resident->df2.tile) os << t << ".";
    os << "}";
  }
  return os.str();
}

void bench_exhaustive(ObsSession& obs) {
  GenLimits limits;
  limits.max_extent = 48;
  const int intra_count = 200, fused_count = 60;

  Rng rng(11);
  std::vector<Workload> intra, fused;
  for (int i = 0; i < intra_count; ++i)
    intra.push_back(gen_workload_of(WorkloadKind::kIntra, rng, limits));
  for (int i = 0; i < fused_count; ++i)
    fused.push_back(gen_workload_of(WorkloadKind::kFused, rng, limits));

  double full_s = 0, pruned_s = 0;
  Clock::time_point t0 = Clock::now();
  std::vector<std::string> full_sigs;
  for (const Workload& w : intra)
    full_sigs.push_back(intra_sig(exhaustive_intra(w.intra_op(), w.bs, ExhaustiveMode::kFull)));
  for (const Workload& w : fused)
    full_sigs.push_back(fused_sig(exhaustive_fused(w.fused_pair(), w.bs, ExhaustiveMode::kFull)));
  full_s = seconds_since(t0);

  t0 = Clock::now();
  std::vector<std::string> pruned_sigs;
  for (const Workload& w : intra)
    pruned_sigs.push_back(
        intra_sig(exhaustive_intra(w.intra_op(), w.bs, ExhaustiveMode::kPruned)));
  for (const Workload& w : fused)
    pruned_sigs.push_back(
        fused_sig(exhaustive_fused(w.fused_pair(), w.bs, ExhaustiveMode::kPruned)));
  pruned_s = seconds_since(t0);

  require(full_sigs == pruned_sigs, "pruned exhaustive vs full");
  const double speedup = full_s / pruned_s;
  std::printf("\nlayer 2: exhaustive oracle (%d intra + %d fused workloads)\n", intra_count,
              fused_count);
  std::printf("  full %8.4fs  pruned %8.4fs  %6.1fx  (byte-identical plans)\n", full_s,
              pruned_s, speedup);
  obs.record_bench_value("exhaustive_full_s", full_s);
  obs.record_bench_value("exhaustive_pruned_s", pruned_s);
  obs.record_bench_value("exhaustive_speedup", speedup);
}

// ---------------------------------------------------------------------------
// Layer 3: conformance harness
// ---------------------------------------------------------------------------

void bench_harness(ObsSession& obs, int trials) {
  HarnessOptions opts;
  opts.seed = 1;
  opts.trials = trials;

  std::printf("\nlayer 3: conformance harness (%d trials, seed %llu)\n", trials,
              static_cast<unsigned long long>(opts.seed));

  opts.jobs = 1;
  Clock::time_point t0 = Clock::now();
  HarnessResult serial = run_conformance(opts);
  const double serial_s = seconds_since(t0);
  obs.record_bench_value("harness_jobs1_s", serial_s);
  std::printf("  jobs=1  %8.4fs  (%lld checks, %d failing)\n", serial_s,
              static_cast<long long>(serial.checks_run), serial.failed_trials);

  const int hw = std::max(2u, std::thread::hardware_concurrency());
  opts.jobs = hw;
  t0 = Clock::now();
  HarnessResult parallel = run_conformance(opts);
  const double parallel_s = seconds_since(t0);
  obs.record_bench_value("harness_jobs" + std::to_string(hw) + "_s", parallel_s);
  obs.record_bench_value("harness_parallel_speedup", serial_s / parallel_s);
  std::printf("  jobs=%d  %8.4fs  %6.2fx  (%lld checks, %d failing)\n", hw, parallel_s,
              serial_s / parallel_s, static_cast<long long>(parallel.checks_run),
              parallel.failed_trials);

  require(serial.trials_run == parallel.trials_run &&
              serial.checks_run == parallel.checks_run &&
              serial.failed_trials == parallel.failed_trials,
          "jobs=1 vs jobs=N harness results");
}

}  // namespace
}  // namespace fusecu

int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  fusecu::ArgParser args({}, {"--trials"});
  args.parse_or_exit(argc, argv, "usage: sim_throughput [--trials N]\n");
  int trials = 200;
  try {
    trials = static_cast<int>(args.option_int("--trials", trials));
  } catch (const std::invalid_argument& e) {
    args.usage_error(e.what());
  }
  fusecu::bench_passes(obs);
  fusecu::bench_exhaustive(obs);
  fusecu::bench_harness(obs, trials);
  std::printf("\nall layers bit-identical across fidelities, modes and job counts\n");
  return 0;
}
