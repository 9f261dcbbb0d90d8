#include "common/json_parse.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"
#include "common/parse_error.hpp"

namespace fusecu {

bool JsonValue::as_bool() const {
  FCU_CHECK(is_bool(), "JSON value is not a boolean");
  return bool_;
}

double JsonValue::as_number() const {
  FCU_CHECK(is_number(), "JSON value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  FCU_CHECK(is_string(), "JSON value is not a string");
  return string_;
}

const std::vector<JsonValuePtr>& JsonValue::as_array() const {
  FCU_CHECK(is_array(), "JSON value is not an array");
  return array_;
}

const std::map<std::string, JsonValuePtr>& JsonValue::as_object() const {
  FCU_CHECK(is_object(), "JSON value is not an object");
  return object_;
}

JsonValuePtr JsonValue::get(const std::string& key) const {
  const auto& members = as_object();
  auto it = members.find(key);
  return it == members.end() ? nullptr : it->second;
}

JsonValuePtr JsonValue::make_null() { return std::make_shared<JsonValue>(); }

JsonValuePtr JsonValue::make_bool(bool b) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kBool;
  v->bool_ = b;
  return v;
}

JsonValuePtr JsonValue::make_number(double n) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kNumber;
  v->number_ = n;
  return v;
}

JsonValuePtr JsonValue::make_string(std::string s) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kString;
  v->string_ = std::move(s);
  return v;
}

JsonValuePtr JsonValue::make_array(std::vector<JsonValuePtr> items) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kArray;
  v->array_ = std::move(items);
  return v;
}

JsonValuePtr JsonValue::make_object(std::map<std::string, JsonValuePtr> members) {
  auto v = std::make_shared<JsonValue>();
  v->kind_ = Kind::kObject;
  v->object_ = std::move(members);
  return v;
}

namespace {

unsigned hex_value(char h) {
  return static_cast<unsigned>(h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
}

/// Hand each unescaped byte of an already validated raw string to \p emit.
template <typename Emit>
void decode_json_string(std::string_view raw, Emit&& emit) {
  std::size_t i = 0;
  while (i < raw.size()) {
    const char c = raw[i++];
    if (c != '\\') {
      emit(c);
      continue;
    }
    const char esc = raw[i++];
    switch (esc) {
      case 'b': emit('\b'); break;
      case 'f': emit('\f'); break;
      case 'n': emit('\n'); break;
      case 'r': emit('\r'); break;
      case 't': emit('\t'); break;
      case 'u': {
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) code = code * 16 + hex_value(raw[i++]);
        // UTF-8 encode the BMP code point (surrogate pairs are passed
        // through as two separate 3-byte sequences; good enough for the
        // ASCII-heavy text this project reads).
        if (code < 0x80) {
          emit(static_cast<char>(code));
        } else if (code < 0x800) {
          emit(static_cast<char>(0xC0 | (code >> 6)));
          emit(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          emit(static_cast<char>(0xE0 | (code >> 12)));
          emit(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          emit(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default: emit(esc); break;  // '"', '\\' and '/' stand for themselves
    }
  }
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

bool is_hex_digit(char c) {
  return is_digit(c) || ((c | 0x20) >= 'a' && (c | 0x20) <= 'f');
}

/// std::isspace in the "C" locale.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// The grammar.  Every step returns false after recording the failure in
/// error_, so a malformed document unwinds without an exception.
class Walker {
 public:
  Walker(std::string_view text, JsonSink& sink, JsonError& error)
      : text_(text), sink_(sink), error_(error) {}

  bool document() {
    if (!value()) return false;
    skip_ws();
    return check(pos_ == text_.size(), "end of document");
  }

 private:
  bool fail(const char* expected) {
    error_ = JsonError{pos_, expected};
    return false;
  }

  bool check(bool ok, const char* expected) { return ok || fail(expected); }

  void skip_ws() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }

  bool peek(char& c) {
    if (pos_ >= text_.size()) return fail("a value before end of input");
    c = text_[pos_];
    return true;
  }

  /// Consume \p c; \p quoted is its expected text, e.g. "':'".
  bool expect(char c, const char* quoted) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return fail(quoted);
  }

  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return fail("a JSON literal (true/false/null)");
    pos_ += lit.size();
    return true;
  }

  bool value() {
    skip_ws();
    char c = 0;
    if (!peek(c)) return false;
    switch (c) {
      case '{': return object();
      case '[': return array();
      case '"': {
        JsonString s;
        if (!string(s)) return false;
        sink_.string_value(s);
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        sink_.bool_value(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        sink_.bool_value(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        sink_.null_value();
        return true;
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    sink_.begin_object();
    skip_ws();
    char c = 0;
    if (!peek(c)) return false;
    if (c == '}') {
      ++pos_;
      sink_.end_object();
      return true;
    }
    while (true) {
      skip_ws();
      JsonString key;
      if (!string(key)) return false;
      sink_.key(key);
      skip_ws();
      if (!expect(':', "':'") || !value()) return false;
      skip_ws();
      if (!peek(c)) return false;
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (!expect('}', "'}'")) return false;
      sink_.end_object();
      return true;
    }
  }

  bool array() {
    ++pos_;  // '['
    sink_.begin_array();
    skip_ws();
    char c = 0;
    if (!peek(c)) return false;
    if (c == ']') {
      ++pos_;
      sink_.end_array();
      return true;
    }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (!peek(c)) return false;
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (!expect(']', "']'")) return false;
      sink_.end_array();
      return true;
    }
  }

  bool string(JsonString& out) {
    if (!expect('"', "'\"'")) return false;
    const std::size_t begin = pos_;
    bool escaped = false;
    while (true) {
      if (pos_ >= text_.size()) return fail("a closing '\"'");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) return fail("an escaped control character");
        continue;
      }
      escaped = true;
      if (pos_ >= text_.size()) return fail("an escape character");
      switch (text_[pos_++]) {
        case '"':
        case '\\':
        case '/':
        case 'b':
        case 'f':
        case 'n':
        case 'r':
        case 't': break;
        case 'u':
          if (pos_ + 4 > text_.size()) return fail("four hex digits after \\u");
          for (int i = 0; i < 4; ++i) {
            if (!is_hex_digit(text_[pos_++])) return fail("four hex digits after \\u");
          }
          break;
        default: return fail("a valid escape character");
      }
    }
    out = JsonString(text_.substr(begin, pos_ - 1 - begin), escaped);
    return true;
  }

  /// The longest [-]digits[.digits][(e|E)[+|-]digits] prefix, accepted
  /// exactly when std::strtod would consume all of it: the mantissa needs a
  /// digit, and an exponent marker needs one after it.
  bool number() {
    const std::size_t start = pos_;
    bool mantissa_digits = false;
    bool exponent_ok = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) {
      ++pos_;
      mantissa_digits = true;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() && is_digit(text_[pos_])) {
        ++pos_;
        mantissa_digits = true;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      exponent_ok = false;
      while (pos_ < text_.size() && is_digit(text_[pos_])) {
        ++pos_;
        exponent_ok = true;
      }
    }
    if (!check(pos_ > start, "a value") ||
        !check(mantissa_digits && exponent_ok, "a number")) {
      return false;
    }
    sink_.number_value(JsonNumber(text_.substr(start, pos_ - start)));
    return true;
  }

  std::string_view text_;
  JsonSink& sink_;
  JsonError& error_;
  std::size_t pos_ = 0;
};

/// The value-tree sink behind parse_json.
class TreeBuilder final : public JsonSink {
 public:
  JsonValuePtr take_root() { return std::move(root_); }

  void null_value() override { put(JsonValue::make_null()); }
  void bool_value(bool b) override { put(JsonValue::make_bool(b)); }
  void number_value(const JsonNumber& n) override { put(JsonValue::make_number(n.value())); }
  void string_value(const JsonString& s) override { put(JsonValue::make_string(s.str())); }
  void begin_object() override { open(true); }
  void key(const JsonString& k) override { stack_.back().key = k.str(); }
  void end_object() override { close(JsonValue::make_object(std::move(stack_.back().members))); }
  void begin_array() override { open(false); }
  void end_array() override { close(JsonValue::make_array(std::move(stack_.back().items))); }

 private:
  struct Frame {
    bool object = false;
    std::string key;  ///< the member whose value comes next
    std::map<std::string, JsonValuePtr> members;
    std::vector<JsonValuePtr> items;
  };

  void open(bool object) {
    stack_.emplace_back();
    stack_.back().object = object;
  }

  void close(JsonValuePtr container) {
    stack_.pop_back();
    put(std::move(container));
  }

  void put(JsonValuePtr v) {
    if (stack_.empty()) {
      root_ = std::move(v);
    } else if (Frame& top = stack_.back(); top.object) {
      top.members[std::move(top.key)] = std::move(v);  // a repeated key keeps the last value
    } else {
      top.items.push_back(std::move(v));
    }
  }

  std::vector<Frame> stack_;
  JsonValuePtr root_;
};

}  // namespace

void JsonString::append_to(std::string& out) const {
  if (!escaped_) {
    out.append(raw_);
    return;
  }
  decode_json_string(raw_, [&](char c) { out.push_back(c); });
}

std::string JsonString::str() const {
  std::string out;
  append_to(out);
  return out;
}

bool JsonString::equals(std::string_view s) const {
  if (!escaped_) return raw_ == s;
  std::size_t n = 0;
  bool same = true;
  decode_json_string(raw_, [&](char c) {
    same = same && n < s.size() && s[n] == c;
    ++n;
  });
  return same && n == s.size();
}

double JsonNumber::value() const {
  // Up to 15 plain digits are exact in a double, so summing them gives
  // std::strtod's answer without its cost.
  if (!token_.empty() && token_.size() <= 15 &&
      std::all_of(token_.begin(), token_.end(), is_digit)) {
    std::int64_t whole = 0;
    for (char c : token_) whole = whole * 10 + (c - '0');
    return static_cast<double>(whole);
  }
  char buf[64];
  if (token_.size() < sizeof(buf)) {
    std::memcpy(buf, token_.data(), token_.size());
    buf[token_.size()] = '\0';
    return std::strtod(buf, nullptr);
  }
  return std::strtod(std::string(token_).c_str(), nullptr);
}

bool walk_json(std::string_view text, JsonSink& sink, JsonError& error) {
  return Walker(text, sink, error).document();
}

JsonValuePtr parse_json(const std::string& text, const std::string& source) {
  TreeBuilder tree;
  JsonError error;
  if (!walk_json(text, tree, error)) {
    const auto [line, column] = line_column_at(text, error.offset);
    throw ParseError(source, line, column, error.expected,
                     "at offset " + std::to_string(error.offset));
  }
  return tree.take_root();
}

}  // namespace fusecu
