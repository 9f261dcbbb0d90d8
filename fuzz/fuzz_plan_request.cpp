// Differential fuzz target for request decoding: parse_plan_request (one
// pass of the json_parse walker into the typed request fields) against the
// reference, parse_json's value tree fed to plan_request_from_json.  Both
// decoders must end the same way on every input — equal requests, equal
// ParseError positions and expected texts, or equal field-rule messages —
// and decode_plan_request over a used request must agree with them.  The
// checks are fuzz/plan_request_diff.hpp, which tests/request_decode_test.cpp
// runs on seeded mutations too.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "plan_request_diff.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string line(reinterpret_cast<const char*>(data), size);
  const std::string diff = fusecu::request_diff::mismatch(line);
  if (!diff.empty()) {
    std::fprintf(stderr, "request decode mismatch: %s\n", diff.c_str());
    std::abort();
  }
  return 0;
}
