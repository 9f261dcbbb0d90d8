// Golden digests of the planning service's response bytes.  Each test folds
// the JSONL response lines of a fixed seeded population into one FNV-1a hash
// and compares it with a constant recorded from the service as it stood when
// every response was rendered through an ostream-backed JsonWriter.  A
// serializer change that alters any byte of any response fails here.
//
// Every shape is answered four ways: PlanResponse::to_json of the direct
// optimizer's plan with "cached" false and true, and PlanService's line core
// (plan_line_json, which splices the cached body behind the escaped id) on
// the first request (a miss) and on the repeat (a hit).  Ids mix plain ASCII
// with '"', '\\', control bytes below 0x20 and multi-byte UTF-8, so the
// id escaping is covered on every path.
//
// The population is drawn with splitmix64 and plain modular reduction, as in
// closed_form_golden_test.cpp, so it is the same under every standard
// library and compiler.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/json_writer.hpp"
#include "fusion/fusion_principles.hpp"
#include "principles/principle_optimizer.hpp"
#include "serve/plan_request.hpp"
#include "serve/plan_service.hpp"
#include "test_util.hpp"

namespace fusecu {
namespace {

// Recorded from the ostream-backed writer and the substr-cut cached bodies.
constexpr std::uint64_t kIntraDigest = 0xc707a82b39d7da08ull;
constexpr std::uint64_t kFusedDigest = 0x2be30be3e9bffc05ull;
constexpr std::uint64_t kErrorDigest = 0xd34afb09485b3abdull;

/// A random id of 0..11 pieces, each a plain letter, a JSON-special byte, a
/// control byte or a 2-, 3- or 4-byte UTF-8 sequence.
std::string random_text(test_util::SplitMix& rng) {
  constexpr std::array<std::string_view, 12> kPieces = {
      "a", "Z", "7", "\"", "\\", "\n", "\t", "\x01", "\x1f", "\xc3\xa9", "\xe2\x82\xac",
      "\xf0\x9f\x98\x80"};
  std::string text;
  const int pieces = static_cast<int>(rng.next() % 12);
  for (int p = 0; p < pieces; ++p) text.append(kPieces[rng.next() % kPieces.size()]);
  return text;
}

std::string quoted(const std::string& raw) {
  std::string out = "\"";
  JsonWriter::append_escaped(out, raw);
  out.push_back('"');
  return out;
}

/// \p response with the `FCU_CHECK failed: (...) at <file>:<line> — `
/// prefix of a field-rule message cut out: the file is the source's path on
/// the machine that built the test, and the line moves with any edit above
/// the check, so neither belongs in a digest of the serializer.
std::string without_check_location(std::string response) {
  const std::size_t begin = response.find("FCU_CHECK failed: (");
  if (begin == std::string::npos) return response;
  const std::string_view dash = " \xe2\x80\x94 ";  // " — "
  const std::size_t end = response.find(dash, begin);
  EXPECT_NE(end, std::string::npos) << response;
  return response.erase(begin, end + dash.size() - begin);
}

ServeOptions golden_options() {
  ServeOptions options;
  options.threads = 1;
  options.cache_bytes = 256ull * 1024 * 1024;  // no evictions: every repeat is a hit
  return options;
}

/// The four answers for one request line: two direct renders of \p direct,
/// then the service's miss and hit lines.
void digest_answers(test_util::Fnv1a& digest, PlanService& service, PlanResponse direct,
                    const std::string& line) {
  direct.cached = false;
  digest.add(direct.to_json());
  direct.cached = true;
  digest.add(direct.to_json());
  bool parse_error = true;
  digest.add(service.plan_line_json(line, "<golden>", 1, 0, &parse_error));
  EXPECT_FALSE(parse_error) << line;
  digest.add(service.plan_line_json(line, "<golden>", 1, 0, &parse_error));
}

/// Both orientations of each shape, (m, k, l) and (l, k, m), at the same
/// buffer, every eighth a shared-weight batched matmul.
TEST(PlanResponseGolden, IntraResponsesMatchTheDigest) {
  test_util::SplitMix rng(20261025);
  test_util::Fnv1a digest;
  PlanService service(golden_options());
  for (int i = 0; i < 10000; ++i) {
    const Index m = rng.extent(256), k = rng.extent(256), l = rng.extent(256);
    const Index batch = rng.next() % 8 == 0 ? rng.uniform(2, 6) : 1;
    const BufferSize bs = rng.next() % 2 == 0 ? rng.uniform(3, 4096) : rng.uniform(3, 1 << 18);
    const std::string id = random_text(rng);
    for (const auto& [a, c] : {std::pair{m, l}, std::pair{l, m}}) {
      std::string line = "{\"id\":" + quoted(id) + ",\"op\":\"matmul\",\"m\":" +
                         std::to_string(a) + ",\"k\":" + std::to_string(k) +
                         ",\"l\":" + std::to_string(c) + ",\"buffer_elems\":" + std::to_string(bs);
      if (batch > 1) line += ",\"batch\":" + std::to_string(batch) + ",\"shared_weight\":true";
      line += "}";
      const PlanRequest request = parse_plan_request(line);
      PlanResponse direct;
      direct.id = request.id;
      direct.ok = true;
      direct.kind = PlanRequest::Kind::kMatmul;
      direct.intra = optimize_intra(request.to_op(), bs);
      digest_answers(digest, service, std::move(direct), line);
    }
  }
  EXPECT_EQ(digest.value(), kIntraDigest) << "got 0x" << std::hex << digest.value();
}

/// Buffers from too small to fuse at all up to the resident-intermediate
/// band, so both fusable and not-fusable answers are covered.
TEST(PlanResponseGolden, FusedResponsesMatchTheDigest) {
  test_util::SplitMix rng(20261026);
  test_util::Fnv1a digest;
  PlanService service(golden_options());
  int fusable = 0;
  for (int i = 0; i < 6000; ++i) {
    const Index m = rng.extent(160), k = rng.extent(160), l = rng.extent(160),
                n = rng.extent(160);
    const FusedPair pair = FusedPair::make(m, k, l, n);
    BufferSize bs = 3;
    switch (rng.next() % 3) {
      case 0:
        bs = rng.uniform(1, 6);
        break;
      case 1:
        bs = rng.uniform(7, 64 * 1024);
        break;
      default:
        bs = pair.intermediate_size() + rng.uniform(1, 8192);
    }
    const std::string id = random_text(rng);
    const std::string line = "{\"id\":" + quoted(id) + ",\"op\":\"fused_pair\",\"m\":" +
                             std::to_string(m) + ",\"k\":" + std::to_string(k) +
                             ",\"l\":" + std::to_string(l) + ",\"n\":" + std::to_string(n) +
                             ",\"buffer_elems\":" + std::to_string(bs) + "}";
    PlanResponse direct;
    direct.id = id;
    direct.ok = true;
    direct.kind = PlanRequest::Kind::kFusedPair;
    direct.fused = optimize_fused_pair(pair, bs);
    direct.fusable = direct.fused.has_value();
    fusable += direct.fusable ? 1 : 0;
    digest_answers(digest, service, std::move(direct), line);
  }
  EXPECT_GT(fusable, 1000);
  EXPECT_GT(6000 - fusable, 500);
  EXPECT_EQ(digest.value(), kFusedDigest) << "got 0x" << std::hex << digest.value();
}

/// error_response() over random ids and messages, and the service's lines
/// for requests that fail: well-formed JSON with a bad field (the message
/// echoes the raw "op" text), malformed JSON, and an oversized line.
TEST(PlanResponseGolden, ErrorResponsesMatchTheDigest) {
  test_util::SplitMix rng(20261027);
  test_util::Fnv1a digest;
  PlanService service(golden_options());
  for (int i = 0; i < 4000; ++i) {
    const std::string id = random_text(rng);
    const std::string message = random_text(rng) + " " + random_text(rng);
    digest.add(error_response(id, message).to_json());
    const std::string bad_op = "{\"id\":" + quoted(id) + ",\"op\":" + quoted(message) +
                               ",\"m\":4,\"k\":4,\"l\":4,\"buffer_elems\":64}";
    const std::string bad_field = "{\"id\":" + quoted(id) + ",\"m\":" +
                                  std::to_string(rng.uniform(-3, 0)) +
                                  ",\"k\":4,\"l\":4,\"buffer_elems\":64}";
    const std::string bad_json = "{\"id\":" + quoted(id) + ",\"m\":" + message;
    for (const std::string& line : {bad_op, bad_field, bad_json}) {
      digest.add(
          without_check_location(service.plan_line_json(line, "<golden>", i + 1, 0, nullptr)));
    }
    std::string oversized;
    service.reject_oversized_line("<golden>", i + 1, 1024, oversized);
    digest.add(oversized);
  }
  EXPECT_EQ(digest.value(), kErrorDigest) << "got 0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace fusecu
