/// \file plan_throughput.cpp
/// Planning-service throughput: requests/sec for a 64-request mixed matmul
/// batch on the calling thread, comparing
///
///   * serial-cold     — optimize_intra per request, no cache (the
///                       pre-service baseline every tool used to pay);
///   * warm            — PlanService::plan per request with the sharded
///                       cache warm (the steady state of a server);
///   * warm obs-armed  — the same warm batch with the flight recorder armed;
///   * cold evicting   — PlanService::plan on a never-repeating stream at
///                       the default 64 MB budget, after a fill past the
///                       point where the cache starts evicting, so every
///                       request is a miss that plans, inserts and evicts.
///
/// The batch mixes 16 distinct transformer-derived shapes x 4 repeats, so
/// even the cold pass has intra-batch repetition — exactly the workload the
/// canonicalizer + cache are built for.  Items processed = requests, so
/// google-benchmark's items_per_second column reads as requests/sec.

#include <benchmark/benchmark.h>

#include <cstdint>
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

/// Every request of the warm batch through plan() on the calling thread.
void plan_warm_batch(benchmark::State& state) {
  PlanService service;
  const std::vector<PlanRequest> batch = mixed_batch();
  for (const PlanRequest& request : batch) service.plan(request);  // warm the cache
  for (auto _ : state) {
    for (const PlanRequest& request : batch) {
      benchmark::DoNotOptimize(service.plan(request).cached);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
}

void BM_Warm(benchmark::State& state) { plan_warm_batch(state); }
BENCHMARK(BM_Warm);

/// Same warm batch with everything armed: spans recorded into the flight
/// recorder rings, logger mirroring at info.  Bounds what --flight-out
/// costs a live server (retention only; no I/O on the hot path).
void BM_WarmObsArmed(benchmark::State& state) {
  FlightRecorder::global().arm();
  plan_warm_batch(state);
  FlightRecorder::global().disarm();
}
BENCHMARK(BM_WarmObsArmed);

/// Request \p i of a never-repeating stream: no two requests share a shape,
/// and none is another's transpose (m < l always), so each one misses.
PlanRequest cold_request(std::int64_t i) {
  PlanRequest request;
  request.m = 64 + i % 1024;
  request.k = 64 + (i / 1024) % 1024;
  request.l = 2048 + i / (1024 * 1024);
  request.buffer_elems = kBs;
  return request;
}

/// The cold stream through plan() on a cache that already evicts.  The
/// service, filled once, and the stream's position persist across
/// google-benchmark's repeated runs of this function.
void BM_ColdEvicting(benchmark::State& state) {
  static PlanService service;
  static std::int64_t next = 0;
  if (next == 0) {
    const std::int64_t evictions = service.stats().combined().evictions;
    while (service.stats().combined().evictions == evictions) service.plan(cold_request(next++));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.plan(cold_request(next++)).cached);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColdEvicting);

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
