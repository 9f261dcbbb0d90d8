#include "common/json_writer.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace fusecu {

void JsonWriter::append_escaped(std::string& out, std::string_view raw) {
  const char* run = raw.data();
  const char* const end = raw.data() + raw.size();
  for (const char* p = run; p != end; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(run, p);
    run = p + 1;
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\t':
        out.append("\\t");
        break;
      case '\r':
        out.append("\\r");
        break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(u, sizeof(u));
      }
    }
  }
  out.append(run, end);
}

void JsonWriter::append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

void JsonWriter::before_value() {
  FCU_CHECK(!root_written_ || depth_ > 0, "only one root value allowed");
  if (depth_ > 0) {
    bool& first = first_in_scope_[static_cast<std::size_t>(depth_ - 1)];
    if (scopes_[static_cast<std::size_t>(depth_ - 1)] == Scope::kObject) {
      FCU_CHECK(pending_key_, "object members need a key");
    } else if (!first) {
      out_.push_back(',');
    }
    first = false;
  }
  pending_key_ = false;
}

void JsonWriter::key(std::string_view name) {
  FCU_CHECK(depth_ > 0 && scopes_[static_cast<std::size_t>(depth_ - 1)] == Scope::kObject,
            "key outside an object");
  FCU_CHECK(!pending_key_, "two keys in a row");
  bool& first = first_in_scope_[static_cast<std::size_t>(depth_ - 1)];
  out_.append(first ? "\"" : ",\"");
  first = false;
  append_escaped(out_, name);
  out_.append("\":");
  pending_key_ = true;
}

void JsonWriter::push(Scope scope, char open) {
  FCU_CHECK(depth_ < kMaxDepth, "JSON nesting deeper than JsonWriter::kMaxDepth");
  before_value();
  out_.push_back(open);
  scopes_[static_cast<std::size_t>(depth_)] = scope;
  first_in_scope_[static_cast<std::size_t>(depth_)] = true;
  ++depth_;
}

void JsonWriter::pop(Scope scope, char close) {
  FCU_CHECK(depth_ > 0 && scopes_[static_cast<std::size_t>(depth_ - 1)] == scope,
            scope == Scope::kObject ? "no object to end" : "no array to end");
  FCU_CHECK(!pending_key_, "dangling key");
  out_.push_back(close);
  --depth_;
  after_value();
}

void JsonWriter::begin_object() { push(Scope::kObject, '{'); }
void JsonWriter::end_object() { pop(Scope::kObject, '}'); }
void JsonWriter::begin_array() { push(Scope::kArray, '['); }
void JsonWriter::end_array() { pop(Scope::kArray, ']'); }

void JsonWriter::value(std::string_view v) {
  before_value();
  out_.push_back('"');
  append_escaped(out_, v);
  out_.push_back('"');
  after_value();
}

void JsonWriter::value(double v) {
  FCU_CHECK(std::isfinite(v), "JSON cannot represent non-finite numbers");
  before_value();
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.10g", v);
  out_.append(buf, static_cast<std::size_t>(n));
  after_value();
}

void JsonWriter::value(std::int64_t v) {
  before_value();
  append_int(out_, v);
  after_value();
}

void JsonWriter::value(bool v) {
  before_value();
  out_.append(v ? "true" : "false");
  after_value();
}

void JsonWriter::raw_value(std::string_view json) {
  before_value();
  out_.append(json);
  after_value();
}

}  // namespace fusecu
