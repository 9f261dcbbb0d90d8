#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

/// \file parse_error.hpp
/// Uniform error reporting for every text format this project reads —
/// INI-lite run configurations, JSON documents, JSONL request streams.
///
/// Before this helper each parser produced its own message shape ("line 7:
/// unknown option", "JSON parse error at offset 132"), and the tools printed
/// them without saying *which file* failed.  ParseError carries the source
/// name, 1-based line/column and the token the parser expected, and formats
/// them in the conventional compiler style
///
///   eval.cfg:7:1: expected key = value — got "platfroms TPUv4i"
///
/// so a user can jump straight to the offending input.  It derives from
/// std::invalid_argument, keeping every existing `catch`/EXPECT_THROW site
/// working unchanged.

namespace fusecu {

class ParseError : public std::invalid_argument {
 public:
  /// \p column and \p detail may be zero/empty when the parser cannot tell.
  ParseError(std::string source, int line, int column, std::string expected,
             std::string detail = "");

  const std::string& source() const { return source_; }
  int line() const { return line_; }
  int column() const { return column_; }
  /// What the parser was looking for ("key = value", "',' or '}'", ...).
  const std::string& expected() const { return expected_; }

  static std::string format(const std::string& source, int line, int column,
                            const std::string& expected, const std::string& detail);

 private:
  std::string source_;
  int line_ = 0;
  int column_ = 0;
  std::string expected_;
};

/// 1-based (line, column) of byte \p offset within \p text, counting '\n'
/// line breaks.  Offsets past the end report the position just after the
/// last character.
std::pair<int, int> line_column_at(std::string_view text, std::size_t offset);

}  // namespace fusecu
