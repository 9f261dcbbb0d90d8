#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"
#include "principles/principle_optimizer.hpp"
#include "serve/plan_service.hpp"

namespace fusecu {
namespace {

constexpr BufferSize kBs = 256 * 1024;  // 512 KB bf16

std::int64_t counter_value(const std::string& name) {
  return MetricsRegistry::global().counter(name).value();
}

/// Serialize an intra plan the way the service does, with a fixed id and
/// cached flag, so responses can be compared byte-for-byte.
std::string intra_json(const std::string& id, const IntraOptResult& result, bool cached) {
  PlanResponse response;
  response.id = id;
  response.ok = true;
  response.kind = PlanRequest::Kind::kMatmul;
  response.cached = cached;
  response.intra = result;
  return response.to_json();
}

/// \p line with its "cached" flag forced to false.
std::string uncached(std::string line) {
  const std::string hot = "\"cached\":true";
  const std::size_t at = line.find(hot);
  if (at != std::string::npos) line.replace(at, hot.size(), "\"cached\":false");
  return line;
}

PlanRequest matmul_request(const std::string& id, Index m, Index k, Index l,
                           BufferSize bs = kBs) {
  PlanRequest r;
  r.id = id;
  r.m = m;
  r.k = k;
  r.l = l;
  r.buffer_elems = bs;
  return r;
}

PlanRequest fused_request(const std::string& id, Index m, Index k, Index l, Index n,
                          BufferSize bs = kBs) {
  PlanRequest r = matmul_request(id, m, k, l, bs);
  r.kind = PlanRequest::Kind::kFusedPair;
  r.n = n;
  return r;
}

TEST(PlanService, ByteIdenticalToDirectOptimizer) {
  TensorOp op = TensorOp::matmul("matmul", 2048, 512, 512);
  TensorOp opT = TensorOp::matmul("matmul", 512, 512, 2048);
  // Direct answers from the free optimizer.
  const IntraOptResult direct = optimize_intra(op, kBs);
  const IntraOptResult directT = optimize_intra(opT, kBs);

  ServeOptions options;
  options.threads = 2;
  PlanService service(options);

  const PlanResponse first = service.plan(matmul_request("x", 2048, 512, 512));
  EXPECT_FALSE(first.cached);
  const PlanResponse second = service.plan(matmul_request("x", 2048, 512, 512));
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(intra_json("x", *first.intra, false), intra_json("x", direct, false));
  EXPECT_EQ(intra_json("x", *second.intra, false), intra_json("x", direct, false));

  // The transposed orientation has a key of its own: it is planned once
  // (never derived from the other orientation's plan) and must match the
  // direct optimizer byte-for-byte too.
  const PlanResponse firstT = service.plan(matmul_request("x", 512, 512, 2048));
  EXPECT_FALSE(firstT.cached);
  const PlanResponse secondT = service.plan(matmul_request("x", 512, 512, 2048));
  EXPECT_TRUE(secondT.cached);
  EXPECT_EQ(intra_json("x", *firstT.intra, false), intra_json("x", directT, false));
  EXPECT_EQ(intra_json("x", *secondT.intra, false), intra_json("x", directT, false));

  // Full response framing: the service's JSONL line equals one assembled
  // from the direct result.
  PlanResponse response = service.plan(matmul_request("r1", 2048, 512, 512));
  EXPECT_EQ(response.to_json(), intra_json("r1", direct, true));
}

TEST(PlanService, ConcurrentHammerProducesIdenticalPlans) {
  const std::vector<PlanRequest> shapes = {
      matmul_request("a", 1024, 64, 1024),  matmul_request("b", 4096, 128, 4096),
      matmul_request("c", 512, 512, 2048),  matmul_request("d", 2048, 512, 512),
      matmul_request("e", 768, 3072, 768),
  };
  // Expected plans from the direct optimizer.
  std::map<std::string, std::string> expected;
  for (const PlanRequest& r : shapes) {
    expected[r.id] = intra_json(r.id, optimize_intra(r.to_op(), r.buffer_elems), false);
  }

  ServeOptions options;
  options.threads = 4;
  PlanService service(options);

  constexpr int kThreads = 4;
  constexpr int kIters = 50;
  std::vector<std::thread> threads;
  std::vector<std::string> failures[kThreads];
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const PlanRequest& r = shapes[static_cast<std::size_t>((t + i) % shapes.size())];
        const std::string json = service.plan(r).to_json();
        const std::string want = expected[r.id];
        // Responses may legitimately differ in the "cached" flag; plans may
        // not.
        if (uncached(json) != want) failures[t].push_back("want " + want + "\n got " + json);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty()) << failures[t][0];
  }
}

TEST(PlanService, ConcurrentTwinsPlanIdenticallyAndCountDuplicates) {
  // Two threads ask for the same never-seen shape at the same moment, for
  // many shapes.  Nothing makes one twin wait for the other: when both
  // probes miss, both plan, and the second insert finds the slot filled.
  // The plans are byte-identical either way.
  PlanService service(ServeOptions{.threads = 1});
  constexpr int kShapes = 400;
  std::barrier sync(2);
  std::string json[2][kShapes];
  bool cached[2][kShapes] = {};
  const std::int64_t duplicates_before = service.stats().duplicate_plans;
  std::vector<std::thread> twins;
  for (int t = 0; t < 2; ++t) {
    twins.emplace_back([&, t] {
      for (int i = 0; i < kShapes; ++i) {
        sync.arrive_and_wait();
        const PlanResponse response = service.plan(matmul_request("twin", 64 + i, 48, 40, 4096));
        cached[t][i] = response.cached;
        json[t][i] = uncached(response.to_json());
      }
    });
  }
  for (std::thread& th : twins) th.join();
  int double_misses = 0;
  for (int i = 0; i < kShapes; ++i) {
    EXPECT_EQ(json[0][i], json[1][i]) << "shape " << i;
    EXPECT_FALSE(cached[0][i] && cached[1][i]) << "shape " << i << " hit before any plan";
    double_misses += !cached[0][i] && !cached[1][i] ? 1 : 0;
  }
  EXPECT_EQ(service.stats().duplicate_plans - duplicates_before, double_misses);
}

TEST(PlanService, FusedPlansAndNegativeAnswersAreCached) {
  ServeOptions options;
  options.threads = 1;
  PlanService service(options);

  const PlanRequest pair = fused_request("pair", 1024, 64, 1024, 64);
  const PlanResponse first = service.plan(pair);
  ASSERT_TRUE(first.fused.has_value());
  EXPECT_FALSE(first.cached);
  const PlanResponse second = service.plan(pair);
  ASSERT_TRUE(second.fused.has_value());
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(first.fused->access.total, second.fused->access.total);
  EXPECT_EQ(first.fused->chosen.rule, second.fused->chosen.rule);

  // "Not fusable at this buffer" is a planning answer, not an error — the
  // second ask must come from the cache without re-running the optimizer.
  const BufferSize tiny = 4;  // no fused candidate fits 4 elements
  const std::int64_t calls_before = counter_value("principles/optimize_fused_pair/calls");
  const PlanResponse miss = service.plan(fused_request("pair", 1024, 64, 1024, 64, tiny));
  const PlanResponse cached_miss = service.plan(fused_request("pair", 1024, 64, 1024, 64, tiny));
  ASSERT_TRUE(miss.ok) << miss.error;
  ASSERT_TRUE(cached_miss.ok) << cached_miss.error;
  EXPECT_FALSE(miss.fused.has_value());
  EXPECT_FALSE(cached_miss.fused.has_value());
  EXPECT_TRUE(cached_miss.cached);
  EXPECT_EQ(counter_value("principles/optimize_fused_pair/calls") - calls_before, 1);
}

TEST(PlanService, FusedMissesLeaveTheIntraCacheAlone) {
  // The fused plan's regime tags come from the closed form directly, so a
  // fused miss probes and fills only the fused tier.
  PlanService service(ServeOptions{.threads = 1});
  const CacheStats before = service.stats().intra;
  const PlanResponse planned = service.plan(fused_request("pair", 512, 64, 512, 64));
  ASSERT_TRUE(planned.fused.has_value());
  EXPECT_FALSE(planned.cached);
  const CacheStats after = service.stats().intra;
  EXPECT_EQ(after.hits + after.misses, before.hits + before.misses);
  EXPECT_EQ(after.insertions, before.insertions);
}

TEST(PlanService, FreeOptimizersNeverConsultAService) {
  TensorOp op = TensorOp::matmul("m", 256, 128, 256);
  PlanService service(ServeOptions{.threads = 1});
  (void)service.plan(matmul_request("m", 256, 128, 256));
  ASSERT_TRUE(service.plan(matmul_request("m", 256, 128, 256)).cached);
  const std::int64_t before = counter_value("principles/optimize_intra/calls");
  (void)optimize_intra(op, kBs);
  EXPECT_EQ(counter_value("principles/optimize_intra/calls") - before, 1)
      << "a live service must not answer a free optimize_intra call";
}

TEST(PlanService, TransposedRequestIsItsOwnEntry) {
  // a and b are each other's transpose.  Each is keyed in its own
  // orientation, so b misses even with a cached, inserts one entry charged
  // for b's answer alone, and then both orientations hit.
  const PlanRequest a = matmul_request("a", 64, 32, 128, 1000);
  const PlanRequest b = matmul_request("b", 128, 32, 64, 1000);
  PlanService service(ServeOptions{.threads = 1});
  const CacheStats before = service.stats().intra;
  ASSERT_TRUE(service.plan(a).ok);
  const CacheStats one = service.stats().intra;
  const PlanResponse b_cold = service.plan(b);
  const CacheStats both = service.stats().intra;
  ASSERT_TRUE(b_cold.ok) << b_cold.error;
  EXPECT_FALSE(b_cold.cached);
  EXPECT_EQ(both.misses - before.misses, 2);
  EXPECT_EQ(both.insertions - one.insertions, 1);
  EXPECT_EQ(both.entries, 2u);

  EXPECT_TRUE(service.plan(a).cached);
  EXPECT_TRUE(service.plan(b).cached);
  const CacheStats after = service.stats().intra;
  EXPECT_EQ(after.hits - both.hits, 2);
  EXPECT_EQ(after.insertions, both.insertions);

  // b's entry costs what it costs in a cache that never saw a.
  PlanService alone(ServeOptions{.threads = 1});
  ASSERT_TRUE(alone.plan(b).ok);
  EXPECT_EQ(both.bytes - one.bytes, alone.stats().intra.bytes);
}

TEST(PlanService, BadRequestsBecomeErrorResponsesWithTheirId) {
  PlanService service(ServeOptions{.threads = 1});
  PlanRequest bad = matmul_request("oops", 0, 64, 64);
  PlanResponse response = service.plan(bad);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.id, "oops");
  EXPECT_FALSE(response.error.empty());
  const std::string json = response.to_json();
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"oops\""), std::string::npos);
}

// --- Plan records --------------------------------------------------------
//
// The service stores each plan as a fixed-size record and renders both the
// wire bytes and the typed results from it.  A seeded sweep of requests —
// batched, both transpose orientations, buffers on both sides of the
// full-fit clamp and below 3, unfusable pairs — must come back exactly as
// the direct optimizers answer request.to_op() / to_pair(): on the wire as
// append_ok_body of the direct result (an error as the direct optimizer's
// message, past the FCU_CHECK location), and through plan() field for
// field, on a miss and on a hit.

/// \p text with its "FCU_CHECK failed: (...) at file:line — " prefix cut:
/// the location is the check's, not part of the message.
std::string without_check_location(std::string text) {
  const std::size_t begin = text.find("FCU_CHECK failed: (");
  if (begin == std::string::npos) return text;
  const std::string_view dash = " \xe2\x80\x94 ";  // " — "
  const std::size_t end = text.find(dash, begin);
  EXPECT_NE(end, std::string::npos) << text;
  return text.erase(begin, end + dash.size() - begin);
}

std::string wire_line(const PlanRequest& r) {
  std::string line = "{\"id\":\"" + r.id + "\",\"op\":\"" +
                     (r.kind == PlanRequest::Kind::kMatmul ? "matmul" : "fused_pair") +
                     "\",\"m\":" + std::to_string(r.m) + ",\"k\":" + std::to_string(r.k) +
                     ",\"l\":" + std::to_string(r.l);
  if (r.kind == PlanRequest::Kind::kFusedPair) line += ",\"n\":" + std::to_string(r.n);
  if (r.batch > 1) line += ",\"batch\":" + std::to_string(r.batch) + ",\"shared_weight\":true";
  return line + ",\"buffer_elems\":" + std::to_string(r.buffer_elems) + "}";
}

/// The request sweep: seeded, drawn by modular reduction so it is the same
/// under every standard library.
std::vector<PlanRequest> record_sweep() {
  std::mt19937_64 rng(20261020);
  const auto draw = [&](Index lo, Index hi) {
    return lo + static_cast<Index>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  std::vector<PlanRequest> out;
  for (int i = 0; i < 600; ++i) {
    PlanRequest r;
    r.id = "r";
    r.id += std::to_string(i);
    r.m = draw(1, 160);
    r.k = draw(1, 160);
    r.l = draw(1, 160);
    BufferSize full = 0;  // every tensor resident at once
    if (i % 2 == 0) {
      if (draw(0, 2) == 0) r.batch = draw(2, 6);
      if (r.m < r.l && draw(0, 1) == 1) std::swap(r.m, r.l);  // both orientations
      const Index m = r.batch * r.m;
      full = m * r.k + r.k * r.l + m * r.l;
    } else {
      r.kind = PlanRequest::Kind::kFusedPair;
      r.n = draw(1, 160);
      full = r.m * r.k + r.k * r.l + r.m * r.l + r.l * r.n + r.m * r.n;
    }
    switch (draw(0, 5)) {
      case 0: r.buffer_elems = draw(1, 2); break;           // below the minimal working set
      case 1: r.buffer_elems = draw(3, 64); break;
      case 2: r.buffer_elems = draw(3, full); break;        // below the clamp
      case 3: r.buffer_elems = full; break;                 // at it
      case 4: r.buffer_elems = full + draw(1, full); break;  // above it
      default: r.buffer_elems = r.m * r.l + draw(0, 4); break;  // the fused resident edge
    }
    out.push_back(r);
  }
  return out;
}

void expect_same(const IntraOptResult& got, const IntraOptResult& want) {
  EXPECT_EQ(got.dataflow.loop_order, want.dataflow.loop_order);
  EXPECT_EQ(got.dataflow.tile, want.dataflow.tile);
  EXPECT_EQ(got.access.per_tensor, want.access.per_tensor);
  EXPECT_EQ(got.access.total, want.access.total);
  EXPECT_EQ(got.access.buffer_footprint, want.access.buffer_footprint);
  EXPECT_EQ(got.nra, want.nra);
  EXPECT_EQ(got.buffer_class, want.buffer_class);
  EXPECT_EQ(got.rule, want.rule);
}

void expect_same(const std::optional<FusedOptResult>& got,
                 const std::optional<FusedOptResult>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want) return;
  EXPECT_EQ(got->access.op1_external, want->access.op1_external);
  EXPECT_EQ(got->access.op2_external, want->access.op2_external);
  EXPECT_EQ(got->access.total, want->access.total);
  EXPECT_EQ(got->access.buffer_footprint, want->access.buffer_footprint);
  EXPECT_EQ(got->chosen.rule, want->chosen.rule);
  EXPECT_EQ(got->regime1, want->regime1);
  EXPECT_EQ(got->regime2, want->regime2);
  ASSERT_EQ(got->chosen.phased.has_value(), want->chosen.phased.has_value());
  ASSERT_EQ(got->chosen.resident.has_value(), want->chosen.resident.has_value());
  if (want->chosen.phased) {
    const PhasedFusedDataflow& a = *got->chosen.phased;
    const PhasedFusedDataflow& b = *want->chosen.phased;
    EXPECT_EQ(std::tie(a.t_m, a.t_k, a.t_l, a.t_n, a.l_outer),
              std::tie(b.t_m, b.t_k, b.t_l, b.t_n, b.l_outer));
  } else {
    const ResidentFusedDataflow& a = *got->chosen.resident;
    const ResidentFusedDataflow& b = *want->chosen.resident;
    EXPECT_EQ(a.df1.loop_order, b.df1.loop_order);
    EXPECT_EQ(a.df1.tile, b.df1.tile);
    EXPECT_EQ(a.df2.loop_order, b.df2.loop_order);
    EXPECT_EQ(a.df2.tile, b.df2.tile);
  }
}

TEST(PlanService, PlanRecordsRoundTripToTheDirectOptimizers) {
  PlanService wire(ServeOptions{.threads = 1});
  PlanService typed(ServeOptions{.threads = 1});
  int errors = 0, unfusable = 0, batched = 0, swapped = 0;
  int lineno = 0;
  for (const PlanRequest& r : record_sweep()) {
    SCOPED_TRACE(wire_line(r));
    // The direct answer and its ok line, or the direct optimizer's error.
    std::string body;
    std::string error;
    std::optional<IntraOptResult> intra;
    std::optional<FusedOptResult> fused;
    if (r.kind == PlanRequest::Kind::kMatmul) {
      batched += r.batch > 1 ? 1 : 0;
      swapped += r.m > r.l ? 1 : 0;
      try {
        intra = optimize_intra(r.to_op(), r.buffer_elems);
        append_ok_body(body, *intra);
      } catch (const std::invalid_argument& e) {
        error = e.what();
        ++errors;
      }
    } else {
      fused = optimize_fused_pair(r.to_pair(), r.buffer_elems);
      unfusable += fused ? 0 : 1;
      append_ok_body(body, fused ? &*fused : nullptr);
    }

    for (const bool hit : {false, true}) {
      const std::string line = wire.plan_line_json(wire_line(r), "<sweep>", ++lineno, 0, nullptr);
      const PlanResponse response = wire.plan(r);
      if (!error.empty()) {
        ASSERT_FALSE(response.ok);
        EXPECT_EQ(without_check_location(response.error), without_check_location(error));
        std::string want;
        append_error_response(want, r.id, error);
        EXPECT_EQ(without_check_location(line), without_check_location(want));
        const PlanResponse typed_error = typed.plan(r);
        ASSERT_FALSE(typed_error.ok);
        EXPECT_EQ(without_check_location(typed_error.error), without_check_location(error));
        continue;
      }
      std::string want;
      append_ok_response(want, r.id, body, hit);
      EXPECT_EQ(line, want);
      ASSERT_TRUE(response.ok) << response.error;
      EXPECT_TRUE(response.cached);  // the line before it planned or hit the same key
      std::string typed_want;
      append_ok_response(typed_want, r.id, body, true);
      EXPECT_EQ(response.to_json(), typed_want);
      const PlanResponse planned = typed.plan(r);
      ASSERT_TRUE(planned.ok) << planned.error;
      EXPECT_EQ(planned.cached, hit);
      if (intra) {
        expect_same(*planned.intra, *intra);
        expect_same(*response.intra, *intra);
      } else {
        expect_same(planned.fused, fused);
        expect_same(response.fused, fused);
      }
    }
  }
  // The sweep reaches every case it is meant to.
  EXPECT_GT(errors, 10);
  EXPECT_GT(unfusable, 10);
  EXPECT_GT(batched, 10);
  EXPECT_GT(swapped, 10);
}

// --- Response splicing -----------------------------------------------------
//
// Every ok response line is the request's escaped id spliced in front of a
// body rendered once, when the plan was inserted.  The contract is strict
// byte identity with PlanResponse::to_json: a miss, every later hit, and a
// hit with a *different* id (including ids that need JSON escaping) must all
// match what the full serializer emits for that id and cached flag.

std::string line_json(PlanService& service, const std::string& line, int lineno) {
  bool parse_error = false;
  std::string out = service.plan_line_json(line, "suffix_test.jsonl", lineno, 0, &parse_error);
  EXPECT_FALSE(parse_error) << line;
  return out;
}

std::string matmul_line(const std::string& raw_id, int m, int k, int l) {
  return "{\"id\":\"" + raw_id + "\",\"op\":\"matmul\",\"m\":" + std::to_string(m) +
         ",\"k\":" + std::to_string(k) + ",\"l\":" + std::to_string(l) + ",\"buffer\":\"512KB\"}";
}

TEST(PlanService, WarmHitSpliceIsByteIdenticalToFullSerializer) {
  const std::string line = matmul_line("steady", 384, 256, 320);
  const IntraOptResult direct = optimize_intra(TensorOp::matmul("x", 384, 256, 320), kBs);
  PlanService a(ServeOptions{.threads = 1});
  const std::string miss = line_json(a, line, 1);
  const std::string hit_full = line_json(a, line, 2);
  const std::string hit_spliced = line_json(a, line, 3);
  EXPECT_EQ(miss, intra_json("steady", direct, false));
  EXPECT_EQ(hit_full, intra_json("steady", direct, true));
  EXPECT_NE(hit_full.find("\"cached\":true"), std::string::npos);
  EXPECT_EQ(hit_full, hit_spliced);
  // The only byte-level difference between miss and hit is the cached flag.
  std::string expected = miss;
  const std::size_t at = expected.find("\"cached\":false");
  ASSERT_NE(at, std::string::npos);
  expected.replace(at, std::strlen("\"cached\":false"), "\"cached\":true");
  EXPECT_EQ(hit_spliced, expected);
}

TEST(PlanService, SplicedHitWithEscapedIdMatchesFreshFullSerialization) {
  // id = q"uo\te — the splice must use the *escaped* id, exactly as the
  // full serializer does.
  const std::string tricky = "q\\\"uo\\\\te";
  const std::string warm_line = matmul_line("warm", 384, 256, 320);
  const std::string tricky_line = matmul_line(tricky, 384, 256, 320);

  PlanService a(ServeOptions{.threads = 1});
  (void)line_json(a, warm_line, 1);    // cold miss
  (void)line_json(a, warm_line, 2);    // warm hit
  const std::string spliced = line_json(a, tricky_line, 3);  // spliced, tricky id

  PlanService b(ServeOptions{.threads = 1});
  (void)line_json(b, warm_line, 1);                            // cold miss
  const std::string full = line_json(b, tricky_line, 2);       // first warm hit
  EXPECT_EQ(spliced, full);
  const PlanResponse typed = b.plan(matmul_request("q\"uo\\te", 384, 256, 320));
  EXPECT_EQ(spliced, typed.to_json()) << "splice must escape the id like to_json";
  EXPECT_NE(spliced.find("\"id\":\"q\\\"uo\\\\te\""), std::string::npos) << spliced;
}

TEST(PlanService, TransposedHitsSpliceFromTheirOwnOrientationSlot) {
  // (m,k,l) and (l,k,m) have keys of their own, so each orientation's
  // entry holds its own answer; hits of either orientation must splice
  // their own bytes, never the sibling's.
  const std::string fwd = matmul_line("f", 384, 256, 320);
  const std::string swapped = matmul_line("f", 320, 256, 384);
  PlanService a(ServeOptions{.threads = 1});
  (void)line_json(a, fwd, 1);                             // plans the forward orientation
  (void)line_json(a, swapped, 2);                         // plans the swapped orientation
  const std::string fwd_full = line_json(a, fwd, 3);
  const std::string swp_full = line_json(a, swapped, 4);
  EXPECT_NE(fwd_full.find("\"cached\":true"), std::string::npos) << fwd_full;
  EXPECT_NE(swp_full.find("\"cached\":true"), std::string::npos) << swp_full;
  const std::string fwd_spliced = line_json(a, fwd, 5);
  const std::string swp_spliced = line_json(a, swapped, 6);
  EXPECT_EQ(fwd_full, fwd_spliced);
  EXPECT_EQ(swp_full, swp_spliced);
  EXPECT_NE(fwd_spliced, swp_spliced) << "orientations must not share suffix bytes";
}

TEST(PlanService, FusedPairHitsSpliceByteIdentically) {
  const std::string line =
      "{\"id\":\"fp\",\"op\":\"fused_pair\",\"m\":512,\"k\":64,\"l\":512,\"n\":64,"
      "\"buffer\":\"512KB\"}";
  PlanService a(ServeOptions{.threads = 1});
  (void)line_json(a, line, 1);
  const std::string hit_full = line_json(a, line, 2);
  const std::string hit_spliced = line_json(a, line, 3);
  EXPECT_NE(hit_full.find("\"cached\":true"), std::string::npos);
  EXPECT_EQ(hit_full, hit_spliced);
}

TEST(PlanService, CacheLedgerReconcilesWithTheTraffic) {
  // One probe per request: every answered line counts exactly one hit or one
  // miss (a sequential stream never joins a flight), and every hit — and
  // only a hit — comes back "cached":true.
  const std::vector<std::string> lines = {
      matmul_line("cold", 384, 256, 320),
      matmul_line("warm", 384, 256, 320),
      matmul_line("transposed", 320, 256, 384),
      matmul_line("transposed-warm", 320, 256, 384),
      "{\"id\":\"batched\",\"op\":\"matmul\",\"m\":96,\"k\":64,\"l\":80,\"batch\":4,"
      "\"buffer_elems\":4096}",
      "{\"id\":\"batched-warm\",\"op\":\"matmul\",\"m\":96,\"k\":64,\"l\":80,\"batch\":4,"
      "\"buffer_elems\":4096}",
      "{\"id\":\"fused\",\"op\":\"fused_pair\",\"m\":512,\"k\":64,\"l\":512,\"n\":64,"
      "\"buffer\":\"512KB\"}",
      "{\"id\":\"fused-warm\",\"op\":\"fused_pair\",\"m\":512,\"k\":64,\"l\":512,\"n\":64,"
      "\"buffer\":\"512KB\"}",
      "{\"id\":\"unfusable\",\"op\":\"fused_pair\",\"m\":512,\"k\":64,\"l\":512,\"n\":64,"
      "\"buffer_elems\":4}",
      "{\"id\":\"unfusable-warm\",\"op\":\"fused_pair\",\"m\":512,\"k\":64,\"l\":512,"
      "\"n\":64,\"buffer_elems\":4}",
      "{\"id\":\"malformed\",\"op\":",
      matmul_line("warm-again", 384, 256, 320),
  };
  PlanService service(ServeOptions{.threads = 1});
  const std::int64_t requests_before = counter_value("serve/requests");
  const CacheStats before = service.stats().combined();
  int parse_errors = 0;
  int cached_true = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    bool parse_error = false;
    const std::string out = service.plan_line_json(lines[i], "ledger.jsonl",
                                                   static_cast<int>(i) + 1, 0, &parse_error);
    parse_errors += parse_error ? 1 : 0;
    cached_true += out.find("\"cached\":true") != std::string::npos ? 1 : 0;
  }
  const CacheStats after = service.stats().combined();
  const std::int64_t requests = counter_value("serve/requests") - requests_before;
  const std::int64_t hits = after.hits - before.hits;
  const std::int64_t misses = after.misses - before.misses;
  EXPECT_EQ(parse_errors, 1);
  EXPECT_EQ(requests, static_cast<std::int64_t>(lines.size()));
  EXPECT_EQ(hits + misses, requests - parse_errors);
  EXPECT_EQ(hits, cached_true);
  EXPECT_EQ(hits, 6);
  EXPECT_EQ(misses, 5);
}

int count_misses(const std::vector<std::string>& lines) {
  int misses = 0;
  for (const std::string& line : lines) {
    misses += line.find("\"cached\":false") != std::string::npos ? 1 : 0;
  }
  return misses;
}

TEST(PlanService, TwoServicesAliveAtOnce) {
  // Three distinct shapes, each asked three times, interleaved.
  const std::vector<std::string> shapes = {
      matmul_line("mm", 384, 256, 320),
      "{\"id\":\"fp\",\"op\":\"fused_pair\",\"m\":512,\"k\":64,\"l\":512,\"n\":64,"
      "\"buffer\":\"512KB\"}",
      "{\"id\":\"bt\",\"op\":\"matmul\",\"m\":96,\"k\":64,\"l\":80,\"batch\":4,"
      "\"buffer_elems\":4096}",
  };
  std::vector<std::string> lines;
  for (int round = 0; round < 3; ++round) lines.insert(lines.end(), shapes.begin(), shapes.end());

  std::vector<std::string> reference;
  {
    PlanService service(ServeOptions{.threads = 1});
    std::stringstream in, out;
    for (const std::string& line : lines) in << line << '\n';
    service.serve_stream(in, out, "two_services.jsonl");
    for (std::string line; std::getline(out, line);) reference.push_back(line);
  }
  ASSERT_EQ(reference.size(), lines.size());
  ASSERT_EQ(count_misses(reference), static_cast<int>(shapes.size()));

  PlanService first(ServeOptions{.threads = 1});
  PlanService second(ServeOptions{.threads = 1});
  const std::int64_t misses_before = first.stats().combined().misses;
  std::vector<std::string> answers[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      PlanService& service = t == 0 ? first : second;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        bool parse_error = false;
        answers[t].push_back(service.plan_line_json(lines[i], "two_services.jsonl",
                                                    static_cast<int>(i) + 1, 0, &parse_error));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < 2; ++t) {
    ASSERT_EQ(answers[t].size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(answers[t][i], reference[i]) << "service " << t << " line " << i;
    }
    EXPECT_EQ(count_misses(answers[t]), static_cast<int>(shapes.size()))
        << "service " << t << " must miss once per distinct shape in its own cache";
  }
  // Miss counts are process totals shared by every live service: one miss
  // per shape per service.
  EXPECT_EQ(first.stats().combined().misses - misses_before,
            2 * static_cast<std::int64_t>(shapes.size()));
}

// --- Plan limits -----------------------------------------------------------
//
// Every request line either plans within Index or is refused by a field
// rule.  An accepted line's answer is byte-equal to the direct optimizer's
// on the decoded request, and no product of its extents and buffer
// overflows on the way, which the sanitizer build checks.

/// A value drawn log-uniformly from [1, 2^63 - 1], by bits of \p rng, so
/// the draw is the same under every standard library.
Index log_uniform(std::mt19937_64& rng) {
  const double exponent = static_cast<double>(rng() >> 11) * 0x1.0p-53 * 63.0;
  const double v = std::exp2(exponent);
  return v < 0x1.0p63 ? std::max<Index>(1, static_cast<Index>(v)) : INT64_MAX;
}

TEST(PlanService, RequestLinesPlanWithinIndexOrAreRefused) {
  constexpr Index kLimit = Index{1} << 59;
  std::mt19937_64 rng(20261020);
  std::vector<std::string> lines = {
      // batch * m wraps to a positive Index.
      R"({"id":"x","op":"matmul","m":5,"k":159,"l":30,"buffer_elems":5,)"
      R"("batch":4611686018427387904,"shared_weight":true})",
      // m * k * l wraps to 0.
      R"({"id":"z","op":"matmul","m":4294967296,"k":4294967296,"l":4294967296,)"
      R"("buffer_elems":1000})",
  };
  std::vector<Index> buffers = {5, 1000};
  for (int i = 0; i < 9000; ++i) {
    const auto field = [](const char* name, Index v) {
      return ",\"" + std::string(name) + "\":" + std::to_string(v);
    };
    std::string line = "{\"id\":\"p" + std::to_string(i) + "\"";
    if (i % 3 == 2) {
      line += ",\"op\":\"fused_pair\"" + field("m", log_uniform(rng)) +
              field("k", log_uniform(rng)) + field("l", log_uniform(rng)) +
              field("n", log_uniform(rng));
    } else {
      line += ",\"op\":\"matmul\"" + field("m", log_uniform(rng)) + field("k", log_uniform(rng)) +
              field("l", log_uniform(rng));
      if (i % 2 == 0) line += field("batch", log_uniform(rng)) + ",\"shared_weight\":true";
    }
    buffers.push_back(log_uniform(rng));
    lines.push_back(line + field("buffer_elems", buffers.back()) + "}");
  }

  PlanService service(ServeOptions{.threads = 1});
  int refused = 0, matmuls = 0, batched = 0, clamped = 0, fused = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    SCOPED_TRACE(line);
    const std::string got =
        service.plan_line_json(line, "<limits>", static_cast<int>(i) + 1, 0, nullptr);
    PlanRequest r;
    std::string want;
    try {
      r = parse_plan_request(line, "<limits>", static_cast<int>(i) + 1);
    } catch (const std::invalid_argument& e) {
      append_error_response(want, "", e.what());
      EXPECT_EQ(got, want);
      EXPECT_NE(want.find("too large to plan"), std::string::npos);
      ++refused;
      continue;
    }
    ASSERT_GE(i, 2u) << "the two wrapping lines must be refused";
    std::string body;
    try {
      if (r.kind == PlanRequest::Kind::kMatmul) {
        if (buffers[i] > kLimit) {  // planned at the full fit
          const Index rows = r.batch * r.m;
          const auto sent = static_cast<Index>(static_cast<double>(buffers[i]));  // as parsed
          EXPECT_EQ(r.buffer_elems, std::min(sent, rows * r.k + r.k * r.l + rows * r.l));
          ++clamped;
        }
        append_ok_body(body, optimize_intra(r.to_op(), r.buffer_elems));
        ++matmuls;
        batched += r.batch > 1 ? 1 : 0;
      } else {
        const std::optional<FusedOptResult> plan = optimize_fused_pair(r.to_pair(), r.buffer_elems);
        append_ok_body(body, plan ? &*plan : nullptr);
        ++fused;
      }
    } catch (const std::invalid_argument& e) {  // a buffer below the working set
      append_error_response(want, r.id, e.what());
      EXPECT_EQ(without_check_location(got), without_check_location(want));
      continue;
    }
    append_ok_response(want, r.id, body, false);
    EXPECT_EQ(uncached(got), want);
  }
  // The draw reaches every case it is meant to.
  EXPECT_GT(refused, 1000);
  EXPECT_GT(matmuls, 200);
  EXPECT_GT(batched, 40);
  EXPECT_GT(clamped, 10);
  EXPECT_GT(fused, 60);
}

TEST(PlanService, TypedRequestsFollowThePlanLimits) {
  // plan() applies the decoders' rule: a batch whose product with M wraps,
  // extents whose product wraps to 0, and a fused (k+n)^2 past 2^59 are
  // refused with the request's id.
  PlanService service(ServeOptions{.threads = 1});
  PlanRequest wraps = matmul_request("x", 5, 159, 30, 5);
  wraps.batch = Index{1} << 62;
  const Index huge = Index{1} << 32;
  for (const PlanRequest& r : {wraps, matmul_request("z", huge, huge, huge, 1000),
                               fused_request("f", 1, Index{1} << 29, 1, Index{1} << 29, 64)}) {
    const PlanResponse response = service.plan(r);
    EXPECT_FALSE(response.ok) << r.id;
    EXPECT_EQ(response.id, r.id);
    EXPECT_NE(response.error.find("too large to plan"), std::string::npos) << response.error;
  }
  // A matmul buffer past 2^59 plans as the full fit.
  const PlanResponse fit = service.plan(matmul_request("h", 64, 32, 128, Index{1} << 62));
  ASSERT_TRUE(fit.ok) << fit.error;
  const BufferSize full = 64 * 32 + 32 * 128 + 64 * 128;
  EXPECT_EQ(intra_json("h", *fit.intra, false),
            intra_json("h", optimize_intra(TensorOp::matmul("h", 64, 32, 128), full), false));
}

/// Threads of this process, from the kernel's own list.
int live_threads() {
  int n = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(PlanService, TypedPlanningStartsNoThread) {
  const int before = live_threads();
  PlanService service(ServeOptions{.threads = 2});
  service.plan(matmul_request("typed", 384, 256, 320));
  service.plan(fused_request("typed", 256, 64, 256, 64));
  EXPECT_EQ(live_threads(), before) << "typed planning runs on the caller's thread";
}

}  // namespace
}  // namespace fusecu
