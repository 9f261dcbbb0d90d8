#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "common/json_writer.hpp"
#include "workloads/report.hpp"

namespace fusecu {
namespace {

TEST(JsonWriter, ObjectsArraysAndEscaping) {
  std::string out;
  {
    JsonWriter w(out);
    w.begin_object();
    w.field("name", std::string("a\"b\\c\nd"));
    w.field("count", 42);
    w.field("ratio", 0.5);
    w.field("flag", true);
    w.key("list");
    w.begin_array();
    w.value(1);
    w.value(2);
    w.end_array();
    w.end_object();
    EXPECT_TRUE(w.complete());
  }
  EXPECT_EQ(out,
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"count\":42,\"ratio\":0.5,"
            "\"flag\":true,\"list\":[1,2]}");
}

TEST(JsonWriter, EnforcesStructure) {
  std::string out;
  JsonWriter w(out);
  EXPECT_THROW(w.key("k"), std::invalid_argument);  // key outside object
  w.begin_object();
  EXPECT_THROW(w.value(1), std::invalid_argument);  // value without key
  w.key("k");
  EXPECT_THROW(w.key("k2"), std::invalid_argument);  // two keys in a row
  w.value(1);
  EXPECT_THROW(w.end_array(), std::invalid_argument);  // mismatched scope
  w.end_object();
  EXPECT_TRUE(w.complete());
}

TEST(JsonWriter, EveryMisuseThrows) {
  {
    std::string out;
    JsonWriter w(out);
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::invalid_argument);  // key inside an array
  }
  {
    std::string out;
    JsonWriter w(out);
    w.begin_object();
    w.key("k");
    EXPECT_THROW(w.end_object(), std::invalid_argument);  // dangling key
  }
  {
    std::string out;
    JsonWriter w(out);
    w.value(1);
    EXPECT_TRUE(w.complete());
    EXPECT_THROW(w.value(2), std::invalid_argument);  // a second root
    EXPECT_THROW(w.begin_object(), std::invalid_argument);
  }
  {
    std::string out;
    JsonWriter w(out);
    EXPECT_THROW(w.end_object(), std::invalid_argument);  // nothing open
    EXPECT_THROW(w.end_array(), std::invalid_argument);
    w.begin_array();
    EXPECT_THROW(w.end_object(), std::invalid_argument);  // unbalanced end
    w.end_array();
    EXPECT_THROW(w.end_array(), std::invalid_argument);
  }
}

TEST(JsonWriter, NestingPastTheFixedDepthThrows) {
  std::string out;
  JsonWriter w(out);
  for (int d = 0; d < JsonWriter::kMaxDepth; ++d) w.begin_array();
  EXPECT_THROW(w.begin_array(), std::invalid_argument);
  EXPECT_THROW(w.begin_object(), std::invalid_argument);
  for (int d = 0; d < JsonWriter::kMaxDepth; ++d) w.end_array();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(out, std::string(JsonWriter::kMaxDepth, '[') + std::string(JsonWriter::kMaxDepth, ']'));
}

TEST(JsonWriter, AppendsAfterExistingContent) {
  std::string out = "prefix ";
  JsonWriter w(out);
  w.begin_object();
  w.field("a", std::string_view("x"));
  w.end_object();
  EXPECT_EQ(out, "prefix {\"a\":\"x\"}");
}

TEST(JsonWriter, IntegerExtremes) {
  std::string out;
  JsonWriter w(out);
  w.begin_array();
  w.value(std::numeric_limits<std::int64_t>::min());
  w.value(std::numeric_limits<std::int64_t>::max());
  w.value(0);
  w.value(-1);
  w.end_array();
  EXPECT_EQ(out, "[-9223372036854775808,9223372036854775807,0,-1]");
}

TEST(JsonWriter, DoublesKeepTheirPercentTenGText) {
  const double samples[] = {0.0,     -0.0,   0.5,         1.0 / 3.0, 123456789012.0,
                            1e-300,  1e300,  -2.5e-7,     12345.678901234, 65536.0,
                            4.9e-324, 1.7976931348623157e308};
  std::string out;
  JsonWriter w(out);
  w.begin_array();
  std::string expected = "[";
  for (double d : samples) {
    w.value(d);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", d);
    if (expected.size() > 1) expected += ",";
    expected += buf;
  }
  w.end_array();
  EXPECT_EQ(out, expected + "]");
  EXPECT_NE(out.find("0.3333333333,"), std::string::npos);
}

std::string escape(std::string_view raw) {
  std::string out;
  JsonWriter::append_escaped(out, raw);
  return out;
}

TEST(JsonWriter, EscapesControlBytesAndKeepsUtf8) {
  const std::string raw = std::string("q\"b\\s\n\t\r\x01\x1f\x7f") + "\xc3\xa9\xf0\x9f\x98\x80" +
                          std::string(1, '\0') + "end";
  EXPECT_EQ(escape(raw),
            "q\\\"b\\\\s\\n\\t\\r\\u0001\\u001f\x7f\xc3\xa9\xf0\x9f\x98\x80\\u0000end");
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape(""), "");
}

TEST(JsonWriter, RejectsNonFinite) {
  std::string out;
  JsonWriter w(out);
  EXPECT_THROW(w.value(std::numeric_limits<double>::infinity()), std::invalid_argument);
  EXPECT_THROW(w.value(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_TRUE(out.empty());
}

std::vector<ModelEval> sample_evals() {
  ModelEval a;
  a.model = "BERT";
  a.platform = "FuseCU";
  a.access = 1000;
  a.cycles = 2000;
  a.macs = 3000;
  a.fused_pairs = 5;
  a.utilization = 0.75;
  a.energy_pj = 123.5;
  a.energy_movement_fraction = 0.6;
  return {a};
}

TEST(Report, CsvRoundTrip) {
  std::ostringstream os;
  write_evaluation_csv(os, sample_evals());
  const std::string csv = os.str();
  EXPECT_NE(csv.find("model,platform,access"), std::string::npos);
  EXPECT_NE(csv.find("BERT,FuseCU,1000,2000,3000,5,0.75,123.5,0.6"), std::string::npos);
}

TEST(Report, JsonContainsAllFields) {
  std::ostringstream os;
  write_evaluation_json(os, sample_evals());
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  for (const char* needle : {"\"model\":\"BERT\"", "\"platform\":\"FuseCU\"",
                             "\"access\":1000", "\"fused_pairs\":5", "\"utilization\":0.75"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace fusecu
