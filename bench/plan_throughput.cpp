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
///                       request is a miss that plans, inserts and evicts;
///   * cold evicting lines (matmul and fused) — the same kind of stream as
///                       request lines through PlanService::answer_line, the
///                       wire path: decode, key, probe, plan, insert, evict
///                       and render the response line.
///
/// The batch mixes 16 distinct transformer-derived shapes x 4 repeats, so
/// even the cold pass has intra-batch repetition — exactly the workload the
/// canonicalizer + cache are built for.  Items processed = requests, so
/// google-benchmark's items_per_second column reads as requests/sec.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
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

/// Request \p i of a never-repeating fused-pair stream, as cold_request()
/// is for matmuls.
PlanRequest cold_fused_request(std::int64_t i) {
  PlanRequest request;
  request.kind = PlanRequest::Kind::kFusedPair;
  request.m = 64 + i % 1024;
  request.k = 64 + (i / 1024) % 1024;
  request.l = 256;
  request.n = 256 + i / (1024 * 1024);
  request.buffer_elems = kBs;
  return request;
}

std::string request_line(std::int64_t i, const PlanRequest& r) {
  std::string line = "{\"id\":\"c" + std::to_string(i) + "\",\"op\":\"" +
                     (r.kind == PlanRequest::Kind::kMatmul ? "matmul" : "fused_pair") +
                     "\",\"m\":" + std::to_string(r.m) + ",\"k\":" + std::to_string(r.k) +
                     ",\"l\":" + std::to_string(r.l);
  if (r.kind == PlanRequest::Kind::kFusedPair) line += ",\"n\":" + std::to_string(r.n);
  return line + ",\"buffer_elems\":" + std::to_string(r.buffer_elems) + "}";
}

/// A cold stream of request lines through answer_line on a cache that
/// already evicts, as a reactor answers them: into one reused request and
/// response.  Lines are formatted in batches, outside the timing.
class ColdLines {
 public:
  explicit ColdLines(PlanRequest (*request)(std::int64_t)) : request_(request) {
    const std::int64_t evictions = service_.stats().combined().evictions;
    while (service_.stats().combined().evictions == evictions) answer(next_line());
  }

  void run(benchmark::State& state) {
    for (auto _ : state) {
      if (at_ == batch_.size()) {
        state.PauseTiming();
        refill();
        state.ResumeTiming();
      }
      answer(batch_[at_++]);
      benchmark::DoNotOptimize(response_.data());
    }
    state.SetItemsProcessed(state.iterations());
  }

 private:
  void answer(const std::string& line) {
    service_.answer_line(line, "<bench>", 1, keyed_, response_, /*plan_miss=*/true);
  }
  const std::string& next_line() {
    line_ = request_line(next_, request_(next_));
    ++next_;
    return line_;
  }
  void refill() {
    batch_.resize(4096);
    for (std::string& line : batch_) line = next_line();
    at_ = 0;
  }

  PlanRequest (*request_)(std::int64_t);
  PlanService service_;
  KeyedRequest keyed_;
  std::string response_;
  std::string line_;
  std::vector<std::string> batch_;
  std::size_t at_ = 0;
  std::int64_t next_ = 0;
};

void BM_ColdEvictingLines(benchmark::State& state) {
  static ColdLines lines(cold_request);
  lines.run(state);
}
BENCHMARK(BM_ColdEvictingLines);

void BM_ColdEvictingFusedLines(benchmark::State& state) {
  static ColdLines lines(cold_fused_request);
  lines.run(state);
}
BENCHMARK(BM_ColdEvictingFusedLines);

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
