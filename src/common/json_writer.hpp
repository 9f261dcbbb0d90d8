#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/types.hpp"

/// \file json_writer.hpp
/// The one JSON emitter: appends compact JSON to a caller-owned std::string
/// (metrics and flight-recorder exports, chrome traces, evaluation dumps,
/// repro files, planning-service responses).  Handles nesting, comma
/// placement and string escaping, and checks that begin/end calls match on
/// a fixed stack of kMaxDepth scopes.  Integers are formatted with
/// std::to_chars, doubles as printf "%.10g".  Callers that own a stream
/// render into a string first and write it once.

namespace fusecu {

class JsonWriter {
 public:
  /// Nesting depth past which begin_object/begin_array throw.
  static constexpr int kMaxDepth = 16;

  /// Appends to \p out after whatever it already holds.
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Key for the next value inside an object.
  void key(std::string_view name);

  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);

  /// Convenience: key + value.
  template <typename T>
  void field(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

  /// Splice pre-serialized JSON in value position (e.g. a sub-document
  /// produced by another writer).  The caller vouches for its validity.
  void raw_value(std::string_view json);

  /// True once the root value is complete and all scopes are closed.
  bool complete() const { return depth_ == 0 && root_written_; }

  /// \p raw as the inside of a JSON string, appended to \p out.  Runs of
  /// bytes that need no escape are copied whole.
  static void append_escaped(std::string& out, std::string_view raw);
  /// \p v in decimal (std::to_chars) appended to \p out.
  static void append_int(std::string& out, std::int64_t v);

 private:
  enum class Scope : std::uint8_t { kObject, kArray };

  void before_value();
  void after_value() {
    if (depth_ == 0) root_written_ = true;
  }
  void push(Scope scope, char open);
  void pop(Scope scope, char close);

  std::string& out_;
  std::array<Scope, kMaxDepth> scopes_{};
  std::array<bool, kMaxDepth> first_in_scope_{};
  int depth_ = 0;
  bool pending_key_ = false;
  bool root_written_ = false;
};

}  // namespace fusecu
