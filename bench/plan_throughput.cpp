/// \file plan_throughput.cpp
/// Planning-service throughput: requests/sec for a 64-request mixed matmul
/// batch, comparing
///
///   * serial-cold   — optimize_intra per request, no cache, one thread
///                     (the pre-service baseline every tool used to pay);
///   * pooled-warm/T — PlanService::plan_batch on T worker threads with the
///                     sharded cache warm (the steady state of a server);
///   * pooled-warm obs-armed — the same warm batch with the flight recorder
///                     armed.
///
/// The batch mixes 16 distinct transformer-derived shapes x 4 repeats, so
/// even the cold pass has intra-batch repetition — exactly the workload the
/// canonicalizer + cache are built for.  Items processed = requests, so
/// google-benchmark's items_per_second column reads as requests/sec.

#include <benchmark/benchmark.h>

#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/obs_session.hpp"
#include "principles/principle_optimizer.hpp"
#include "serve/plan_service.hpp"

namespace fusecu {
namespace {

constexpr BufferSize kBs = 512 * 1024 / 2;  // 512 KB bf16

/// 16 distinct shapes x 4 repeats = the 64-request mixed batch.
std::vector<PlanRequest> mixed_batch() {
  const struct {
    Index m, k, l;
  } shapes[] = {
      {16384, 768, 768},  {1024, 64, 1024},   {4096, 128, 4096}, {65536, 4096, 16384},
      {1024, 768, 768},   {512, 512, 512},    {2048, 512, 512},  {512, 512, 2048},
      {8192, 1024, 1024}, {1024, 1024, 8192}, {256, 4096, 256},  {4096, 4096, 4096},
      {128, 128, 16384},  {16384, 128, 128},  {768, 3072, 768},  {3072, 768, 3072},
  };
  std::vector<PlanRequest> batch;
  int id = 0;
  for (int repeat = 0; repeat < 4; ++repeat) {
    for (const auto& s : shapes) {
      PlanRequest request;
      request.id = 'r' + std::to_string(id++);
      request.m = s.m;
      request.k = s.k;
      request.l = s.l;
      request.buffer_elems = kBs;
      batch.push_back(request);
    }
  }
  return batch;
}

void BM_SerialCold(benchmark::State& state) {
  const std::vector<PlanRequest> batch = mixed_batch();
  for (auto _ : state) {
    for (const PlanRequest& request : batch) {
      benchmark::DoNotOptimize(optimize_intra(request.to_op(), request.buffer_elems).access.total);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_SerialCold);

void BM_PooledWarm(benchmark::State& state) {
  ServeOptions options;
  options.threads = static_cast<int>(state.range(0));
  PlanService service(options);
  const std::vector<PlanRequest> batch = mixed_batch();
  service.plan_batch(batch);  // warm the cache
  for (auto _ : state) {
    std::vector<PlanResponse> responses = service.plan_batch(batch);
    benchmark::DoNotOptimize(responses.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_PooledWarm)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

/// Same warm batch with everything armed: spans recorded into the flight
/// recorder rings, logger mirroring at info.  Bounds what --flight-out
/// costs a live server (retention only; no I/O on the hot path).
void BM_PooledWarmObsArmed(benchmark::State& state) {
  FlightRecorder::global().arm();
  ServeOptions options;
  options.threads = static_cast<int>(state.range(0));
  PlanService service(options);
  const std::vector<PlanRequest> batch = mixed_batch();
  service.plan_batch(batch);  // warm the cache
  for (auto _ : state) {
    std::vector<PlanResponse> responses = service.plan_batch(batch);
    benchmark::DoNotOptimize(responses.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
  FlightRecorder::global().disarm();
}
BENCHMARK(BM_PooledWarmObsArmed)->Arg(4)->UseRealTime();

/// Cold batch through the pool (cache cleared by rebuilding the service):
/// what parallelism alone buys before the cache kicks in.
void BM_PooledCold(benchmark::State& state) {
  const std::vector<PlanRequest> batch = mixed_batch();
  for (auto _ : state) {
    state.PauseTiming();
    ServeOptions options;
    options.threads = static_cast<int>(state.range(0));
    auto service = std::make_unique<PlanService>(options);
    state.ResumeTiming();
    std::vector<PlanResponse> responses = service->plan_batch(batch);
    benchmark::DoNotOptimize(responses.data());
    state.PauseTiming();
    service.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_PooledCold)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace fusecu

// Expanded BENCHMARK_MAIN so the shared --metrics-out/--trace-out flags are
// stripped before google-benchmark's strict argument check sees them.
int main(int argc, char** argv) {
  fusecu::ObsSession obs(argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
