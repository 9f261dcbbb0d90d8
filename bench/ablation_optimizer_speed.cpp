/// \file ablation_optimizer_speed.cpp
/// Google-benchmark timing ablation for the paper's problem statement
/// (Sec. I): searching-based DSE "is time-consuming" while the principles
/// give the optimum analytically in one shot.  Measures wall time of the
/// principle optimizer vs exhaustive grid search vs the DAT-style GA, on
/// intra-operator and fused-pair problems — plus the plan-service cache,
/// which beats even the one-shot construction on repeated shapes, and the
/// closed forms' mean cost over a cold Table II population and the cost of
/// their probe generator alone over the same population.
///
/// --seed N sets the GA seed (default 42) for run-to-run reproducibility.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fusion/fusion_principles.hpp"
#include "obs/obs_session.hpp"
#include "principles/principle_optimizer.hpp"
#include "principles/two_tile_probe.hpp"
#include "search/dat_optimizer.hpp"
#include "serve/plan_service.hpp"
#include "workloads/transformer.hpp"

namespace fusecu {
namespace {

constexpr BufferSize kBs = 512 * 1024 / 2;  // the evaluation buffer (512 KB bf16)

std::uint64_t g_seed = 42;

TensorOp bench_op() { return TensorOp::matmul("bench", 16384, 768, 768); }

void BM_PrincipleOptimizer(benchmark::State& state) {
  TensorOp op = bench_op();
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_intra(op, kBs).access.total);
  }
}
BENCHMARK(BM_PrincipleOptimizer);

void BM_ExhaustiveSearch(benchmark::State& state) {
  TensorOp op = bench_op();
  for (auto _ : state) {
    benchmark::DoNotOptimize(exhaustive_intra(op, kBs)->access.total);
  }
}
BENCHMARK(BM_ExhaustiveSearch);

void BM_GeneticSearch(benchmark::State& state) {
  TensorOp op = bench_op();
  GaParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ga_intra(op, kBs, params, g_seed)->access.total);
  }
}
BENCHMARK(BM_GeneticSearch);

/// The serving path on a repeated shape: canonical key + sharded LRU hit.
/// This is what a second identical request costs once the service is warm.
void BM_PlanServiceCachedLookup(benchmark::State& state) {
  ServeOptions options;
  options.threads = 1;
  PlanService service(options);
  const TensorOp op = bench_op();
  PlanRequest request;
  request.id = op.name();
  request.m = op.extent(mm::kDimM);
  request.k = op.extent(mm::kDimK);
  request.l = op.extent(mm::kDimL);
  request.buffer_elems = kBs;
  service.plan(request);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.plan(request).intra->access.total);
  }
}
BENCHMARK(BM_PlanServiceCachedLookup);

void BM_FusedPrinciples(benchmark::State& state) {
  FusedPair pair = FusedPair::make(1024, 64, 1024, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_fused_pair(pair, kBs)->access.total);
  }
}
BENCHMARK(BM_FusedPrinciples);

void BM_FusedExhaustive(benchmark::State& state) {
  FusedPair pair = FusedPair::make(1024, 64, 1024, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exhaustive_fused(pair, kBs)->access.total);
  }
}
BENCHMARK(BM_FusedExhaustive);

void BM_FusedGenetic(benchmark::State& state) {
  FusedPair pair = FusedPair::make(1024, 64, 1024, 64);
  GaParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ga_fused(pair, kBs, params, g_seed)->access.total);
  }
}
BENCHMARK(BM_FusedGenetic);

/// A fixed seeded Table II population, the shapes a cold planning stream
/// asks for: one of a drawn layer's five matmuls or, one draw in eight, its
/// attention or FFN fused pair, each with a buffer from one of the four
/// buffer classes of the (producer) matmul (draw_table2_layer,
/// draw_class_buffer in workloads/transformer.hpp).
struct ColdPopulation {
  std::vector<std::pair<TensorOp, BufferSize>> intra;
  std::vector<std::pair<FusedPair, BufferSize>> fused;
};

const ColdPopulation& cold_population() {
  static const ColdPopulation population = [] {
    ColdPopulation p;
    Rng rng(20261019);
    for (int i = 0; i < 8192; ++i) {
      const LayerShapes layer = draw_table2_layer(rng);
      if (i % 8 == 7) {
        const auto& [m, k, l, n] = layer.pairs[rng.pick(2)];
        p.fused.emplace_back(FusedPair::make(m, k, l, n), draw_class_buffer(rng, m, k, l));
      } else {
        const auto& [m, k, l] = layer.matmuls[rng.pick(5)];
        p.intra.emplace_back(TensorOp::matmul("cold", m, k, l), draw_class_buffer(rng, m, k, l));
      }
    }
    return p;
  }();
  return population;
}

/// One closed-form plan per iteration, cycling the cold population: its
/// matmuls through optimize_intra (arg 0) or its fused pairs through
/// optimize_fused_pair (arg 1).  The per-iteration time is the mean cost of
/// a cold plan, not of one shape.
void BM_ClosedFormColdPopulation(benchmark::State& state) {
  const ColdPopulation& population = cold_population();
  std::size_t i = 0;
  if (state.range(0) == 0) {
    for (auto _ : state) {
      const auto& [op, bs] = population.intra[i++ % population.intra.size()];
      benchmark::DoNotOptimize(optimize_intra(op, bs).access.total);
    }
  } else {
    for (auto _ : state) {
      const auto& [pair, bs] = population.fused[i++ % population.fused.size()];
      benchmark::DoNotOptimize(optimize_fused_pair(pair, bs));
    }
  }
}
BENCHMARK(BM_ClosedFormColdPopulation)->ArgName("fused")->Arg(0)->Arg(1);

/// The probe generator alone: one iteration runs the three Principle 1
/// sweeps of one cold matmul (stationary A over (M, K), B over (K, L) and
/// C over (M, L), each weighted as price_single_nra weights it) with a
/// visitor that only sums the probes.  The items rate is sweeps per second.
void BM_TwoTileProbe(benchmark::State& state) {
  const ColdPopulation& population = cold_population();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [op, bs] = population.intra[i++ % population.intra.size()];
    const Index m = op.extent(mm::kDimM), k = op.extent(mm::kDimK), l = op.extent(mm::kDimL);
    const auto mk = static_cast<double>(m * k), kl = static_cast<double>(k * l),
               ml = static_cast<double>(m * l);
    Index sum = 0;
    auto add = [&](Index t1, Index n1, Index t2, Index n2) { sum += t1 + n1 + t2 + n2; };
    for_each_two_tile_probe(m, k, kl, ml, 1, 1, bs, add);
    for_each_two_tile_probe(k, l, ml, mk, 1, 1, bs, add);
    for_each_two_tile_probe(m, l, kl, mk, 1, 1, bs, add);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(3 * state.iterations());
}
BENCHMARK(BM_TwoTileProbe);

/// The access-model evaluation itself (the inner loop of any search).
void BM_AccessModelEvaluation(benchmark::State& state) {
  TensorOp op = bench_op();
  Dataflow df = make_dataflow(op, {"M", "L", "K"}, {{"M", 512}, {"K", 768}, {"L", 1}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_access(op, df).total);
  }
}
BENCHMARK(BM_AccessModelEvaluation);

}  // namespace
}  // namespace fusecu

// Expanded BENCHMARK_MAIN so the shared --metrics-out/--trace-out flags are
// stripped before google-benchmark's strict argument check sees them; --seed
// is likewise extracted by hand because the remaining argv belongs to
// google-benchmark.
int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--seed") {
      fusecu::g_seed = std::strtoull(argv[i + 1], nullptr, 0);
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
