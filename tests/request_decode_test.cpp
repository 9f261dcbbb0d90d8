// parse_plan_request's one-pass typed decoder against the reference
// (parse_json's value tree fed to plan_request_from_json), and
// decode_plan_request over a used request against both, on a table of
// request lines and on seeded byte-level mutations of them.  The oracle is shared with the
// fuzz_plan_request target (fuzz/plan_request_diff.hpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "plan_request_diff.hpp"
#include "serve/plan_request.hpp"

namespace fusecu {
namespace {

using request_diff::Outcome;

std::vector<std::string> table() {
  return {
      // Valid lines of every shape the wire format documents.
      R"({"id":"r1","op":"matmul","m":1024,"k":768,"l":768,"buffer":"512KB","elem_bytes":2})",
      R"({"id":"r2","op":"matmul","m":128,"k":64,"l":256,"batch":8,"shared_weight":true,"buffer_elems":65536})",
      R"({"id":"r3","op":"fused_pair","m":512,"k":512,"l":512,"n":512,"buffer_elems":262144})",
      R"({"m":64,"k":64,"l":64,"buffer":4096})",
      R"({"id":"b","m":64,"k":64,"l":64,"buffer":"1MB","elem_bytes":4,"shared_weight":false})",
      " \t{ \"id\" : \"ws\" , \"m\" : 4 , \"k\" : 4 , \"l\" : 4 , \"buffer_elems\" : 64 }\r",
      // Duplicated and escaped keys: the last value wins, keys compare unescaped.
      R"({"id":"a","m":4,"k":4,"l":4,"buffer_elems":64,"m":8,"id":"b"})",
      R"({"\u0069d":"esc","\u006d":4,"k":4,"l":4,"buffer_\u0065lems":64})",
      R"({"id":"a","\u0069\u0064":"b","i\u0064":"c","m":4,"k":4,"l":4,"buffer_elems":64})",
      R"({"id":"a\"b\\c\/d\n\te\b\f\ré€","m":4,"k":4,"l":4,"buffer_elems":64})",
      R"({"op":"fused_pair","m":4,"k":4,"l":4,"n":4,"buffer_elems":64})",
      R"({"id":"x","op":"matmul","op":"fused_pair","m":4,"k":4,"l":4,"n":4,"buffer_elems":64})",
      R"({"id":"x","m":4,"k":4,"l":4,"buffer_elems":64,"buffer_elems":"many"})",
      R"({"id":"a","m":4,"k":4,"l":4,"buffer_elems":64,"id":7})",
      R"({"id":"a","m":4,"k":4,"l":4,"buffer_elems":64,"id":["x",{"id":"y"}]})",
      // Nested unknown members, including ones named like request fields.
      R"({"meta":{"id":"inner","m":[1,{"m":"deep"}],"x":null},"id":"outer","m":4,"k":4,"l":4,"buffer_elems":64,"tags":["id",[],{}]})",
      R"({"id":"n","m":4,"k":4,"l":4,"buffer_elems":64,"extra":{"buffer":"x","op":7}})",
      R"({"id":"outer","m":4,"k":4,"l":4,"buffer_elems":64,"meta":{"id":"inner","m":"x"}})",
      // Number spellings.
      R"({"id":"e","m":1e3,"k":4.0,"l":-0,"buffer_elems":64})",
      R"({"id":"e","m":1e3,"k":4.0,"l":1.5,"buffer_elems":64})",
      R"({"id":"e","m":1E1,"k":40e-1,"l":0.5e1,"buffer_elems":6.4e1})",
      R"({"id":"e","m":4,"k":4,"l":4,"batch":1.5,"buffer_elems":64})",
      R"({"id":"e","m":4,"k":4,"l":4,"buffer_elems":0.5})",
      R"({"id":"e","m":4,"k":4,"l":4,"buffer":-8})",
      R"({"id":"e","m":4,"k":4,"l":4,"buffer":"512KB","elem_bytes":0})",
      R"({"id":"e","m":4,"k":4,"l":4,"buffer":"1B","elem_bytes":2})",
      R"({"id":"e","m":4,"k":4,"l":4,"buffer":"12XB"})",
      // Field-rule failures in the reference's order.
      R"({"id":5,"m":"4","k":4,"l":4,"buffer_elems":64})",
      R"({"id":"t","op":"conv","m":4,"k":4,"l":4,"buffer_elems":64})",
      R"({"id":"t","op":3,"m":4,"k":4,"l":4,"buffer_elems":64})",
      R"({"id":"t","m":4,"l":4,"buffer_elems":64})",
      R"({"id":"t","m":{},"k":4,"l":4,"buffer_elems":64})",
      R"({"id":"t","op":"fused_pair","m":4,"k":4,"l":4,"n":4,"batch":2,"buffer_elems":64})",
      R"({"id":"t","m":4,"k":4,"l":4,"batch":2,"shared_weight":false,"buffer_elems":64})",
      R"({"id":"t","m":4,"k":4,"l":4,"shared_weight":1,"buffer_elems":64})",
      R"({"id":"t","m":4,"k":4,"l":4,"buffer":[64]})",
      R"({"id":"t","m":4,"k":4,"l":4})",
      // Documents that are not objects, or not one document.
      R"(["id","t"])",
      R"("id")",
      "42",
      "null",
      "",
      "   ",
      R"({"id":"t","m":4,"k":4,"l":4,"buffer_elems":64} x)",
      R"({"id":"t","m":4,"k":4,"l":4,"buffer_elems":64}{})",
      // Grammar the old reactor scanner let through.
      R"({"x":tru,"id":"a","m":4,"k":4,"l":4,"buffer_elems":64})",
      R"({"x":[1,,2],"id":"a","m":4,"k":4,"l":4,"buffer_elems":64})",
      R"({"x":{"y"},"id":"a","m":4,"k":4,"l":4,"buffer_elems":64})",
  };
}

TEST(RequestDecode, TableMatchesTheReference) {
  for (const std::string& line : table()) {
    EXPECT_EQ(request_diff::mismatch(line), "") << line;
  }
}

/// One to four byte flips, truncations and insertions of \p line.
std::string mutate(std::string line, Rng& rng) {
  static const std::string kBytes = "{}[]\",:\\/ \t0123456789.-+eEtrufalsnu\x01\x7f\xc3";
  const int edits = static_cast<int>(rng.uniform(1, 4));
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = line.empty() ? 0 : rng.pick(line.size());
    switch (rng.uniform(0, 3)) {
      case 0:
        if (!line.empty()) line[at] = kBytes[rng.pick(kBytes.size())];
        break;
      case 1:
        if (!line.empty()) line[at] = static_cast<char>(line[at] ^ (1 << rng.uniform(0, 7)));
        break;
      case 2: line.resize(at); break;
      default:
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(at),
                    kBytes[rng.pick(kBytes.size())]);
    }
  }
  return line;
}

TEST(RequestDecode, MutatedLinesMatchTheReference) {
  const std::vector<std::string> lines = table();
  Rng rng(20261017);
  int ok = 0;
  int parse_errors = 0;
  int invalid = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string line = mutate(lines[rng.pick(lines.size())], rng);
    const std::string diff = request_diff::mismatch(line);
    ASSERT_EQ(diff, "") << "mutation " << i << ": " << line;
    switch (request_diff::decoded(line).kind) {
      case Outcome::Kind::kOk: ++ok; break;
      case Outcome::Kind::kParseError: ++parse_errors; break;
      case Outcome::Kind::kInvalid: ++invalid; break;
    }
  }
  // The mutations reach all three endings, not just the grammar's.
  EXPECT_GT(ok, 200);
  EXPECT_GT(parse_errors, 1000);
  EXPECT_GT(invalid, 1000);
}

/// \p value spliced in as the member \p field of a valid matmul request.
std::string with_member(const std::string& field, const std::string& value) {
  std::string line = R"({"id":"r","m":4,"k":4,"l":4,"buffer_elems":64})";
  return line.insert(line.size() - 1, ",\"" + field + "\":" + value);
}

TEST(RequestDecode, NumbersAreRangeCheckedBeforeTheyAreCast) {
  struct Row {
    std::string line;
    std::string error;  ///< empty: decodes
    BufferSize buffer_elems = 0;
  };
  const std::vector<Row> rows = {
      {with_member("buffer_elems", "1e300"),
       "request field \"buffer_elems\" must be a positive number"},
      {with_member("buffer_elems", "9.3e18"),
       "request field \"buffer_elems\" must be a positive number"},
      {with_member("buffer_elems", "65536.7"), "", 65536},
      {with_member("m", "1e300"), "request field \"m\" must be a positive integer"},
      {with_member("m", "9.3e18"), "request field \"m\" must be a positive integer"},
      {with_member("batch", "1e300"), "request field \"batch\" must be a positive integer"},
      {R"({"id":"r","m":4,"k":4,"l":4,"buffer":1e300})",
       "request field \"buffer\" must be positive"},
      {R"({"id":"r","m":4,"k":4,"l":4,"buffer":"1e300KB"})", "byte size out of range: 1e300KB"},
  };
  for (const Row& row : rows) {
    const Outcome got = request_diff::decoded(row.line);
    EXPECT_EQ(request_diff::mismatch(row.line), "") << row.line;
    if (row.error.empty()) {
      ASSERT_EQ(got.kind, Outcome::Kind::kOk) << row.line << ": " << got.message;
      EXPECT_EQ(got.request.buffer_elems, row.buffer_elems) << row.line;
    } else {
      ASSERT_EQ(got.kind, Outcome::Kind::kInvalid) << row.line;
      EXPECT_EQ(got.message, row.error) << row.line;
    }
  }
}

TEST(RequestDecode, PlanLimitsAreFieldRules) {
  // Every product the planner forms fits in 64 bits (plan_request.hpp).
  const std::string kExtents = "request extents are too large to plan: ";
  const std::string kMatmulRule = kExtents + "batch*m*k*l must be at most 2^59";
  const std::string kFusedRule = kExtents + "m*l*(k+n) and (k+n)^2 must be at most 2^59";
  const std::string kFusedBuffer =
      "request buffer is too large to plan: a fused_pair takes at most 2^59 elements";
  struct Row {
    std::string line;
    std::string error;  ///< empty: decodes
    BufferSize buffer_elems = 0;
  };
  const std::vector<Row> rows = {
      // batch*m*k*l at 2^59, and one step past it.
      {R"({"m":1048576,"k":1048576,"l":524288,"buffer_elems":64})", "", 64},
      {R"({"m":1048576,"k":1048576,"l":524289,"buffer_elems":64})", kMatmulRule},
      {R"({"m":524288,"batch":2,"shared_weight":true,"k":1048576,"l":524288,"buffer_elems":64})",
       "", 64},
      {R"({"m":524288,"batch":4,"shared_weight":true,"k":1048576,"l":524288,"buffer_elems":64})",
       kMatmulRule},
      {R"({"m":5,"k":159,"l":30,"buffer_elems":5,"batch":4611686018427387904,"shared_weight":true})",
       kMatmulRule},
      {R"({"m":4294967296,"k":4294967296,"l":4294967296,"buffer_elems":1000})", kMatmulRule},
      // A matmul buffer up to 2^59 is kept; past it, the full fit 48 plans.
      {R"({"m":4,"k":4,"l":4,"buffer_elems":576460752303423488})", "", 576460752303423488},
      {R"({"m":4,"k":4,"l":4,"buffer_elems":576460752303424512})", "", 48},
      {R"({"m":4,"k":4,"l":4,"buffer":4611686018427387904,"elem_bytes":2})", "", 48},
      // m*l*(k+n) and (k+n)^2 at and past 2^59, and the fused buffer.
      {R"({"op":"fused_pair","m":536870912,"k":512,"l":1048576,"n":512,"buffer_elems":64})", "",
       64},
      {R"({"op":"fused_pair","m":1073741824,"k":512,"l":1048576,"n":512,"buffer_elems":64})",
       kFusedRule},
      {R"({"op":"fused_pair","m":1,"k":268435456,"l":1,"n":268435456,"buffer_elems":64})", "",
       64},
      {R"({"op":"fused_pair","m":1,"k":536870912,"l":1,"n":536870912,"buffer_elems":64})",
       kFusedRule},
      {R"({"op":"fused_pair","m":4,"k":4,"l":4,"n":4,"buffer_elems":576460752303423488})", "",
       576460752303423488},
      {R"({"op":"fused_pair","m":4,"k":4,"l":4,"n":4,"buffer_elems":576460752303424512})",
       kFusedBuffer},
  };
  for (const Row& row : rows) {
    const Outcome got = request_diff::decoded(row.line);
    EXPECT_EQ(request_diff::mismatch(row.line), "") << row.line;
    if (row.error.empty()) {
      ASSERT_EQ(got.kind, Outcome::Kind::kOk) << row.line << ": " << got.message;
      EXPECT_EQ(got.request.buffer_elems, row.buffer_elems) << row.line;
    } else {
      ASSERT_EQ(got.kind, Outcome::Kind::kInvalid) << row.line;
      EXPECT_EQ(got.message, row.error) << row.line;
    }
  }
}

TEST(RequestDecode, ParseErrorsCarryTheStreamPosition) {
  const Outcome got = request_diff::decoded(R"({"id":"a","m":4,})", "<stdin>", 12);
  ASSERT_EQ(got.kind, Outcome::Kind::kParseError);
  EXPECT_EQ(got.source, "<stdin>");
  EXPECT_EQ(got.line, 12);
  EXPECT_EQ(got.column, 17);
  EXPECT_EQ(got.expected, "'\"'");
}

}  // namespace
}  // namespace fusecu
