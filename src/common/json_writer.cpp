#include "common/json_writer.hpp"

#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace fusecu {

JsonWriter::JsonWriter(std::ostream& os) : os_(os) {}

JsonWriter::~JsonWriter() = default;

std::string JsonWriter::escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  append_escaped(out, raw);
  return out;
}

void JsonWriter::append_escaped(std::string& out, std::string_view raw) {
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void JsonWriter::before_value() {
  FCU_CHECK(!root_written_ || !stack_.empty(), "only one root value allowed");
  if (!stack_.empty()) {
    if (stack_.back() == Scope::kObject) {
      FCU_CHECK(pending_key_, "object members need a key");
    }
    if (!first_in_scope_.back() && !pending_key_) os_ << ",";
    first_in_scope_.back() = false;
  }
  pending_key_ = false;
}

void JsonWriter::key(const std::string& name) {
  FCU_CHECK(!stack_.empty() && stack_.back() == Scope::kObject, "key outside an object");
  FCU_CHECK(!pending_key_, "two keys in a row");
  if (!first_in_scope_.back()) os_ << ",";
  first_in_scope_.back() = false;
  os_ << '"' << escape(name) << "\":";
  pending_key_ = true;
}

void JsonWriter::begin_object() {
  before_value();
  os_ << "{";
  stack_.push_back(Scope::kObject);
  first_in_scope_.push_back(true);
}

void JsonWriter::end_object() {
  FCU_CHECK(!stack_.empty() && stack_.back() == Scope::kObject, "no object to end");
  FCU_CHECK(!pending_key_, "dangling key");
  os_ << "}";
  stack_.pop_back();
  first_in_scope_.pop_back();
  if (stack_.empty()) root_written_ = true;
}

void JsonWriter::begin_array() {
  before_value();
  os_ << "[";
  stack_.push_back(Scope::kArray);
  first_in_scope_.push_back(true);
}

void JsonWriter::end_array() {
  FCU_CHECK(!stack_.empty() && stack_.back() == Scope::kArray, "no array to end");
  os_ << "]";
  stack_.pop_back();
  first_in_scope_.pop_back();
  if (stack_.empty()) root_written_ = true;
}

void JsonWriter::value(const std::string& v) {
  before_value();
  os_ << '"' << escape(v) << '"';
  if (stack_.empty()) root_written_ = true;
}

void JsonWriter::value(const char* v) { value(std::string(v)); }

void JsonWriter::value(double v) {
  before_value();
  FCU_CHECK(std::isfinite(v), "JSON cannot represent non-finite numbers");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  os_ << buf;
  if (stack_.empty()) root_written_ = true;
}

void JsonWriter::value(std::int64_t v) {
  before_value();
  os_ << v;
  if (stack_.empty()) root_written_ = true;
}

void JsonWriter::raw_value(const std::string& json) {
  before_value();
  os_ << json;
  if (stack_.empty()) root_written_ = true;
}

void JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  if (stack_.empty()) root_written_ = true;
}

}  // namespace fusecu
