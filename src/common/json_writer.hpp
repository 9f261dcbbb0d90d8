#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

/// \file json_writer.hpp
/// Minimal streaming JSON emitter for reports and traces (chrome-tracing
/// files, evaluation dumps).  Handles nesting, comma placement and string
/// escaping; validates that begin/end calls match.

namespace fusecu {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os);
  ~JsonWriter();

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Key for the next value inside an object.
  void key(const std::string& name);

  void value(const std::string& v);
  void value(const char* v);
  void value(double v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);

  /// Convenience: key + value.
  template <typename T>
  void field(const std::string& name, const T& v) {
    key(name);
    value(v);
  }

  /// Splice pre-serialized JSON in value position (e.g. a sub-document
  /// produced by another writer).  The caller vouches for its validity.
  void raw_value(const std::string& json);

  /// True once the root value is complete and all scopes are closed.
  bool complete() const { return stack_.empty() && root_written_; }

  static std::string escape(const std::string& raw);
  /// escape() appended to \p out, reusing its capacity.
  static void append_escaped(std::string& out, std::string_view raw);

 private:
  void before_value();

  enum class Scope { kObject, kArray };
  std::ostream& os_;
  std::vector<Scope> stack_;
  std::vector<bool> first_in_scope_;
  bool pending_key_ = false;
  bool root_written_ = false;
};

}  // namespace fusecu
