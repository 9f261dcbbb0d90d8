#include <gtest/gtest.h>

#include <string>

#include "common/json_parse.hpp"
#include "common/json_writer.hpp"

namespace fusecu {
namespace {

TEST(JsonParse, ParsesScalars) {
  EXPECT_TRUE(parse_json("null")->is_null());
  EXPECT_TRUE(parse_json("true")->as_bool());
  EXPECT_FALSE(parse_json("false")->as_bool());
  EXPECT_DOUBLE_EQ(parse_json("42")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-2.5e3")->as_number(), -2500.0);
  EXPECT_EQ(parse_json("\"hi\"")->as_string(), "hi");
}

TEST(JsonParse, ParsesNestedStructures) {
  JsonValuePtr v = parse_json(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  ASSERT_TRUE(v->is_object());
  const auto& arr = v->get("a")->as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_DOUBLE_EQ(arr[0]->as_number(), 1.0);
  EXPECT_EQ(arr[2]->get("b")->as_string(), "c");
  EXPECT_TRUE(v->get("d")->as_object().empty());
  EXPECT_EQ(v->get("missing"), nullptr);
}

TEST(JsonParse, DecodesStringEscapes) {
  JsonValuePtr v = parse_json(R"("quote \" backslash \\ slash \/ tab \t newline \n unicode A")");
  EXPECT_EQ(v->as_string(), "quote \" backslash \\ slash / tab \t newline \n unicode A");
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), std::invalid_argument);
  EXPECT_THROW(parse_json("{"), std::invalid_argument);
  EXPECT_THROW(parse_json("[1,]"), std::invalid_argument);
  EXPECT_THROW(parse_json("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(parse_json("{\"a\":1} trailing"), std::invalid_argument);
  EXPECT_THROW(parse_json("nul"), std::invalid_argument);
  EXPECT_THROW(parse_json("01x"), std::invalid_argument);
}

TEST(JsonParse, RoundTripsJsonWriterOutput) {
  std::string out;
  {
    JsonWriter w(out);
    w.begin_object();
    w.field("name", "op \"q\"\\path");
    w.field("value", 2.5);
    w.field("flag", true);
    w.key("items");
    w.begin_array();
    w.value(1);
    w.value("two");
    w.end_array();
    w.end_object();
  }
  JsonValuePtr v = parse_json(out);
  EXPECT_EQ(v->get("name")->as_string(), "op \"q\"\\path");
  EXPECT_DOUBLE_EQ(v->get("value")->as_number(), 2.5);
  EXPECT_TRUE(v->get("flag")->as_bool());
  EXPECT_EQ(v->get("items")->as_array()[1]->as_string(), "two");
}

}  // namespace
}  // namespace fusecu
