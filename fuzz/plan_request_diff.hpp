#pragma once

// The differential oracle for request decoding, shared by
// tests/request_decode_test.cpp and the fuzz_plan_request target.
//
// parse_plan_request decodes a line in one pass of the json_parse walker
// with a typed sink; the reference is parse_json's value tree fed to
// plan_request_from_json.  On every line both must end the same way, and
// decode_plan_request into an already used request must assign every
// field, as the reactors reuse one request across lines.

#include <cstddef>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/json_parse.hpp"
#include "common/parse_error.hpp"
#include "serve/plan_request.hpp"

namespace fusecu::request_diff {

/// How one decoder ended on a line.
struct Outcome {
  enum class Kind { kOk, kParseError, kInvalid } kind = Kind::kOk;
  PlanRequest request;     ///< kOk
  std::string source;      ///< kParseError
  int line = 0;            ///< kParseError
  int column = 0;          ///< kParseError
  std::string expected;    ///< kParseError
  std::string message;     ///< kInvalid: the text after " — ", else all of what()
};

inline std::string check_message(const std::exception& e) {
  const std::string what = e.what();
  const std::size_t dash = what.find(" — ");
  return dash == std::string::npos ? what : what.substr(dash + std::string(" — ").size());
}

template <typename Decode>
Outcome run(Decode&& decode) {
  Outcome out;
  try {
    out.request = decode();
  } catch (const ParseError& e) {
    out.kind = Outcome::Kind::kParseError;
    out.source = e.source();
    out.line = e.line();
    out.column = e.column();
    out.expected = e.expected();
  } catch (const std::invalid_argument& e) {
    out.kind = Outcome::Kind::kInvalid;
    out.message = check_message(e);
  }
  return out;
}

inline bool same_request(const PlanRequest& a, const PlanRequest& b) {
  return a.id == b.id && a.kind == b.kind && a.m == b.m && a.k == b.k && a.l == b.l &&
         a.n == b.n && a.batch == b.batch && a.buffer_elems == b.buffer_elems;
}

inline std::string describe(const Outcome& o) {
  switch (o.kind) {
    case Outcome::Kind::kOk: {
      const PlanRequest& r = o.request;
      return "ok{id=" + r.id + " kind=" + std::to_string(static_cast<int>(r.kind)) +
             " m=" + std::to_string(r.m) + " k=" + std::to_string(r.k) +
             " l=" + std::to_string(r.l) + " n=" + std::to_string(r.n) +
             " batch=" + std::to_string(r.batch) +
             " buffer_elems=" + std::to_string(r.buffer_elems) + "}";
    }
    case Outcome::Kind::kParseError:
      return "ParseError{" + o.source + ":" + std::to_string(o.line) + ":" +
             std::to_string(o.column) + " expected " + o.expected + "}";
    case Outcome::Kind::kInvalid: return "invalid_argument{" + o.message + "}";
  }
  return "?";
}

inline bool same_outcome(const Outcome& a, const Outcome& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Outcome::Kind::kOk: return same_request(a.request, b.request);
    case Outcome::Kind::kParseError:
      return a.source == b.source && a.line == b.line && a.column == b.column &&
             a.expected == b.expected;
    case Outcome::Kind::kInvalid: return a.message == b.message;
  }
  return false;
}

/// The decoder's outcome on \p line (as line \p lineno of \p source).
inline Outcome decoded(const std::string& line, const std::string& source = "<diff>",
                       int lineno = 7) {
  return run([&] { return parse_plan_request(line, source, lineno); });
}

/// The reference's outcome: parse_json, re-anchored at \p lineno the way a
/// request stream reports it, then plan_request_from_json.
inline Outcome reference(const std::string& line, const std::string& source = "<diff>",
                         int lineno = 7) {
  return run([&] {
    JsonValuePtr doc;
    try {
      doc = parse_json(line, source);
    } catch (const ParseError& e) {
      throw ParseError(source, lineno, e.column(), e.expected());
    }
    return plan_request_from_json(*doc);
  });
}

/// Empty when the decoder and the reference agree on \p line and
/// decode_plan_request over a used request agrees with both; otherwise
/// what differs.
inline std::string mismatch(const std::string& line) {
  const Outcome got = decoded(line);
  const Outcome want = reference(line);
  if (!same_outcome(got, want)) {
    return "decoder " + describe(got) + " vs reference " + describe(want);
  }
  if (got.kind != Outcome::Kind::kOk) return {};

  PlanRequest used;
  used.id = "a stale id longer than any small-string buffer";
  used.kind = PlanRequest::Kind::kFusedPair;
  used.m = used.k = used.l = used.n = used.batch = used.buffer_elems = 99;
  const Outcome reused = run([&] {
    decode_plan_request(line, used, "<diff>", 7);
    return used;
  });
  if (!same_outcome(reused, got)) {
    return "decode_plan_request over a used request " + describe(reused) + " vs " +
           describe(got);
  }
  return {};
}

}  // namespace fusecu::request_diff
