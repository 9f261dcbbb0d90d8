#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

/// \file cli.hpp
/// Minimal command-line option parser for the example/tool binaries.
/// Supports `--flag`, `--key value` and positional arguments; unknown
/// options are errors so typos fail loudly.

namespace fusecu {

class ArgParser {
 public:
  /// \p flags: options without values; \p options: options expecting one
  /// value.  Names include the leading dashes, e.g. "--validate".
  ArgParser(std::vector<std::string> flags, std::vector<std::string> options);

  /// Parse argv; throws std::invalid_argument on unknown or malformed
  /// options.
  void parse(int argc, const char* const* argv);

  /// parse() with the command-line contract every tool shares: `--help`
  /// prints \p usage to stdout and exits 0; an unknown option or a missing
  /// value prints the error and \p usage to stderr and exits 2.
  void parse_or_exit(int argc, const char* const* argv, const std::string& usage);

  /// Print `error: <message>` and the usage given to parse_or_exit to
  /// stderr and exit 2: the same contract as an unknown option.
  [[noreturn]] void usage_error(const std::string& message) const;

  /// Positional argument \p index as an integer of at least \p min, or
  /// \p default_value when absent.  Anything else is a usage_error naming
  /// \p name ("<name> must be at least <min>").
  Index positional_int(std::size_t index, const std::string& name, Index default_value,
                       Index min) const;

  bool has_flag(const std::string& name) const;
  std::optional<std::string> option(const std::string& name) const;

  // The typed option readers below reject a malformed value with
  // `option --X expects <what>, got "<value>"`: after parse_or_exit() that is
  // a usage_error (usage on stderr, exit 2); after parse() it is thrown as
  // std::invalid_argument.

  /// Option parsed as integer, with default.
  Index option_int(const std::string& name, Index default_value) const;

  /// Option parsed as an unsigned 64-bit integer (decimal or 0x-prefixed
  /// hex), with default.  Shared by every tool's `--seed` flag so the
  /// stochastic search strategies (annealing, genetic) are reproducible
  /// run-to-run.
  std::uint64_t option_uint64(const std::string& name, std::uint64_t default_value) const;

  /// Byte-size option accepting suffixes KB/MB/GB (decimal 1024 steps),
  /// e.g. "512KB", "8MB", or a plain number of bytes.
  std::int64_t option_bytes(const std::string& name, std::int64_t default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// The malformed-value error of the typed option readers.
  [[noreturn]] void bad_value(const std::string& name, const std::string& expects,
                              const std::string& text) const;

  std::vector<std::string> known_flags_;
  std::vector<std::string> known_options_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> set_flags_;
  std::vector<std::string> positional_;
  std::string usage_;
  bool exit_on_error_ = false;  ///< set by parse_or_exit()
};

/// Parse "512KB"-style byte sizes (used by ArgParser::option_bytes).
std::int64_t parse_bytes(const std::string& text);

}  // namespace fusecu
