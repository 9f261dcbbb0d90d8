#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

/// \file json_parse.hpp
/// The one JSON grammar of this project: a single recursive-descent walker
/// with two kinds of sink.
///
/// walk_json() defines the grammar once — objects, arrays, strings with
/// escapes, numbers, booleans, null — together with every error position
/// and "expected" text.  It reports each value to a JsonSink in document
/// order and allocates nothing: strings and numbers reach the sink as views
/// into the text, decoded only when the sink asks, and a failure is an
/// offset plus a static text that callers turn into a message.
///
/// The sinks:
///   - parse_json() builds a JsonValue tree.  Tools, tests, fault plans and
///     repro files read JSON through it.
///   - serve/plan_request.cpp decodes each request line straight into its
///     typed fields and finds the reactor-side id, with no tree at all.

namespace fusecu {

/// A JSON string as it appears in the document: the raw bytes between the
/// quotes, already validated by the walker.  Only valid while the walked
/// text lives.
class JsonString {
 public:
  JsonString() = default;
  JsonString(std::string_view raw, bool escaped) : raw_(raw), escaped_(escaped) {}

  /// The bytes between the quotes, escapes not yet decoded.
  std::string_view raw() const { return raw_; }

  /// Append the unescaped value to \p out (escapes decoded, \uXXXX as
  /// UTF-8, surrogates passed through as two 3-byte sequences).
  void append_to(std::string& out) const;
  std::string str() const;
  /// Compare the unescaped value with \p s without materializing it.
  bool equals(std::string_view s) const;

 private:
  std::string_view raw_;
  bool escaped_ = false;
};

/// A JSON number token, already validated by the walker.  Converted only
/// when asked, with std::strtod.  Only valid while the walked text lives.
class JsonNumber {
 public:
  JsonNumber() = default;
  explicit JsonNumber(std::string_view token) : token_(token) {}

  /// The token's value.  Tokens under 64 bytes convert without
  /// allocating.
  double value() const;

 private:
  std::string_view token_;
};

/// Receives one document's values from walk_json(), in order.  An object
/// arrives as begin_object(), then key() and the member's value for each
/// member, then end_object(); an array as begin_array(), its items and
/// end_array().  Every event defaults to doing nothing.  A sink sees the
/// events before the walk fails, so it must not act on them until
/// walk_json() returns true.
class JsonSink {
 public:
  virtual void null_value() {}
  virtual void bool_value(bool) {}
  virtual void number_value(const JsonNumber&) {}
  virtual void string_value(const JsonString&) {}
  virtual void begin_object() {}
  virtual void key(const JsonString&) {}
  virtual void end_object() {}
  virtual void begin_array() {}
  virtual void end_array() {}

 protected:
  ~JsonSink() = default;
};

/// Where and why a walk failed.
struct JsonError {
  std::size_t offset = 0;    ///< byte offset of the failure
  const char* expected = "";  ///< what the walker looked for, e.g. "a value" or "':'"
};

/// Walk \p text as exactly one JSON document (surrounding whitespace
/// allowed).  Returns false and fills \p error on malformed input,
/// including trailing garbage.  Never throws unless the sink does.
bool walk_json(std::string_view text, JsonSink& sink, JsonError& error);

class JsonValue;
using JsonValuePtr = std::shared_ptr<JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; FCU_CHECK-throw on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValuePtr>& as_array() const;
  const std::map<std::string, JsonValuePtr>& as_object() const;

  /// Object member lookup: nullptr when absent (throws if not an object).
  JsonValuePtr get(const std::string& key) const;
  bool has(const std::string& key) const { return get(key) != nullptr; }

  static JsonValuePtr make_null();
  static JsonValuePtr make_bool(bool b);
  static JsonValuePtr make_number(double n);
  static JsonValuePtr make_string(std::string s);
  static JsonValuePtr make_array(std::vector<JsonValuePtr> items);
  static JsonValuePtr make_object(std::map<std::string, JsonValuePtr> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValuePtr> array_;
  std::map<std::string, JsonValuePtr> object_;
};

/// Parse \p text as one JSON document into a value tree; a repeated object
/// key keeps its last value.  Throws ParseError (a std::invalid_argument,
/// see common/parse_error.hpp) carrying \p source, line and column on
/// malformed input (including trailing garbage).
JsonValuePtr parse_json(const std::string& text, const std::string& source = "<json>");

}  // namespace fusecu
