// Fuzz target for common/json_parse.hpp's value tree — the parse behind
// every repro/fault-plan artifact the tools load.  Request lines from the
// network go through the same walker with a typed sink instead; that path
// has its own differential target, fuzz_plan_request.  Malformed input must
// throw ParseError (a std::invalid_argument), never crash, hang or leak;
// well-formed input must produce a value tree that walks cleanly.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/json_parse.hpp"

namespace {

/// Touch every node so ASan sees any dangling/uninitialized structure.
std::size_t walk(const fusecu::JsonValue& value) {
  std::size_t nodes = 1;
  switch (value.kind()) {
    case fusecu::JsonValue::Kind::kBool:
      (void)value.as_bool();
      break;
    case fusecu::JsonValue::Kind::kNumber:
      (void)value.as_number();
      break;
    case fusecu::JsonValue::Kind::kString:
      (void)value.as_string().size();
      break;
    case fusecu::JsonValue::Kind::kArray:
      for (const fusecu::JsonValuePtr& item : value.as_array()) nodes += walk(*item);
      break;
    case fusecu::JsonValue::Kind::kObject:
      for (const auto& [key, member] : value.as_object()) {
        (void)key.size();
        nodes += walk(*member);
      }
      break;
    case fusecu::JsonValue::Kind::kNull:
      break;
  }
  return nodes;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const fusecu::JsonValuePtr doc = fusecu::parse_json(text, "<fuzz>");
    (void)walk(*doc);
  } catch (const std::invalid_argument&) {
    // ParseError: the only acceptable failure mode for malformed input.
  }
  return 0;
}
