// The reactor-side request scanners (serve/plan_request.hpp) against the
// real parser.  extract_request_id labels shed, timed-out and cancelled
// responses, so it must name the same id the pool-side parse serves under;
// request_shape_hash must ignore exactly that id's value.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "serve/plan_request.hpp"

namespace fusecu {
namespace {

constexpr const char* kShape = R"("op":"matmul","m":4,"k":4,"l":4,"buffer_elems":64)";

std::string with_shape(const std::string& members) {
  return "{" + members + "," + kShape + "}";
}

/// The id the pool-side parse serves under; nullopt when it fails.
std::optional<std::string> parsed_id(const std::string& line) {
  try {
    return parse_plan_request(line).id;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

struct ScanCase {
  const char* what;
  std::string line;
  std::optional<std::string> id;  ///< extract_request_id's answer
};

std::vector<ScanCase> scan_cases() {
  return {
      {"plain", with_shape(R"("id":"r1")"), "r1"},
      {"common escapes", with_shape(R"("id":"a\"b\\c\/d\n\te\b\f\r")"),
       std::string("a\"b\\c/d\n\te\b\f\r")},
      {"unicode escapes", with_shape(R"("id":"\u0041\u00e9\u20AC")"),
       std::string("A\xC3\xA9\xE2\x82\xAC")},
      {"after nested objects and arrays",
       "{" + std::string(kShape) +
           R"(,"meta":{"id":"inner","x":[1,{"id":"deep"},"]"]},"tags":["id",[]],"id":"outer"})",
       "outer"},
      {"id inside a string value", with_shape(R"("note":"\"id\":\"fake\"","id":"real")"),
       "real"},
      {"only inside a string value", with_shape(R"("note":"{\"id\":\"fake\"}")"), std::nullopt},
      {"missing id", "{" + std::string(kShape) + "}", std::nullopt},
      {"numeric id", with_shape(R"("id":5)"), std::nullopt},
      {"null id", with_shape(R"("id":null)"), std::nullopt},
      {"object id", with_shape(R"("id":{"id":"x"})"), std::nullopt},
      {"whitespace", " \t{ \"id\" :\t\"ws\" , \"op\" : \"matmul\" , \"m\" : 4 , \"k\" : 4 , "
                     "\"l\" : 4 , \"buffer_elems\" : 64 }\r",
       "ws"},
      {"empty id", with_shape(R"("id":"")"), ""},
      {"duplicate id", with_shape(R"("id":"a","id":"b")"), "b"},
      {"duplicate id split by the shape", "{\"id\":\"a\"," + std::string(kShape) + ",\"id\":\"b\"}",
       "b"},
      {"duplicate id, last not a string", with_shape(R"("id":"a","id":7)"), std::nullopt},
      {"escaped id key", with_shape(R"("\u0069d":"esc")"), "esc"},
      {"escaped key after a plain one", with_shape(R"("id":"first","\u0069\u0064":"second")"),
       "second"},
      {"plain key after an escaped one", with_shape(R"("i\u0064":"first","id":"second")"),
       "second"},
      {"near-miss keys", with_shape(R"("ids":"x","i":"y","Id":"z","id ":"w")"), std::nullopt},
      {"trailing garbage", with_shape(R"("id":"t")") + " x", std::nullopt},
      {"truncated", R"({"id":"t","op":"matmul")", std::nullopt},
      {"not an object", R"(["id","t"])", std::nullopt},
      {"malformed literal before the id", with_shape(R"("x":tru,"id":"a")"), std::nullopt},
      {"empty array item before the id", with_shape(R"("x":[1,,2],"id":"a")"), std::nullopt},
      {"member without a value before the id", with_shape(R"("x":{"y"},"id":"a")"),
       std::nullopt},
  };
}

TEST(RequestScan, ExtractedIdMatchesTheParser) {
  for (const ScanCase& c : scan_cases()) {
    std::string id = "stale";
    const bool found = extract_request_id(c.line, id);
    EXPECT_EQ(found, c.id.has_value()) << c.what << ": " << c.line;
    EXPECT_EQ(id, c.id.value_or("")) << c.what << ": " << c.line;
    // Every line with an id is served, and wherever the pool-side parse
    // succeeds both name the same id (a missing id is served as "").
    const std::optional<std::string> served = parsed_id(c.line);
    if (c.id) EXPECT_TRUE(served.has_value()) << c.what << ": " << c.line;
    if (served) EXPECT_EQ(id, *served) << c.what << ": " << c.line;
  }
}

/// \p line with every '@' replaced by \p id.
std::string fill(const std::string& line, const std::string& id) {
  std::string out;
  for (char c : line) {
    if (c == '@') {
      out += id;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

TEST(RequestScan, ShapeHashIgnoresOnlyTheServedId) {
  const std::vector<std::string> templates = {
      with_shape(R"("id":"@")"),
      " { \"id\" : \"@\" , \"op\":\"matmul\",\"m\":4,\"k\":4,\"l\":4,\"buffer_elems\":64 } ",
      with_shape(R"("id":"fixed","id":"@")"),
      "{\"id\":\"fixed\"," + std::string(kShape) + ",\"id\":\"@\"}",
      with_shape(R"("\u0069d":"@")"),
      with_shape(R"("id":"fixed","\u0069\u0064":"@")"),
      with_shape(R"("note":"\"id\":\"x\"","id":"@")"),
  };
  for (const std::string& t : templates) {
    const std::string a = fill(t, "alpha");
    const std::string b = fill(t, "b\\u00e9ta");
    ASSERT_EQ(parsed_id(a), std::optional<std::string>("alpha")) << a;
    EXPECT_EQ(request_shape_hash(a), request_shape_hash(b)) << a << "\n" << b;
    EXPECT_EQ(request_shape_hash(a), request_shape_hash(fill(t, ""))) << a;
  }
  // The shape still counts, and so does an id the parser discards.
  EXPECT_NE(request_shape_hash(R"({"id":"a","op":"matmul","m":4,"k":4,"l":4,"buffer_elems":64})"),
            request_shape_hash(R"({"id":"a","op":"matmul","m":8,"k":4,"l":4,"buffer_elems":64})"));
  EXPECT_NE(request_shape_hash(with_shape(R"("id":"x","id":"a")")),
            request_shape_hash(with_shape(R"("id":"y","id":"a")")));
}

}  // namespace
}  // namespace fusecu
