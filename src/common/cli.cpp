#include "common/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string_view>

#include "common/check.hpp"
#include "common/units.hpp"

namespace fusecu {

ArgParser::ArgParser(std::vector<std::string> flags, std::vector<std::string> options)
    : known_flags_(std::move(flags)), known_options_(std::move(options)) {}

void ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    if (std::find(known_flags_.begin(), known_flags_.end(), arg) != known_flags_.end()) {
      set_flags_.push_back(arg);
      continue;
    }
    if (std::find(known_options_.begin(), known_options_.end(), arg) != known_options_.end()) {
      if (i + 1 >= argc) throw std::invalid_argument("option " + arg + " expects a value");
      values_[arg] = argv[++i];
      continue;
    }
    throw std::invalid_argument("unknown option: " + arg);
  }
}

void ArgParser::parse_or_exit(int argc, const char* const* argv, const std::string& usage) {
  usage_ = usage;
  exit_on_error_ = true;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--help") {
      std::cout << usage;
      std::exit(0);
    }
  }
  try {
    parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    usage_error(e.what());
  }
}

void ArgParser::usage_error(const std::string& message) const {
  std::cerr << "error: " << message << "\n" << usage_;
  std::exit(2);
}

Index ArgParser::positional_int(std::size_t index, const std::string& name, Index default_value,
                                Index min) const {
  if (index >= positional_.size()) return default_value;
  const std::string& text = positional_[index];
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE || parsed < min) {
    usage_error(name + " must be at least " + std::to_string(min));
  }
  return parsed;
}

bool ArgParser::has_flag(const std::string& name) const {
  return std::find(set_flags_.begin(), set_flags_.end(), name) != set_flags_.end();
}

std::optional<std::string> ArgParser::option(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

void ArgParser::bad_value(const std::string& name, const std::string& expects,
                          const std::string& text) const {
  const std::string message = "option " + name + " expects " + expects + ", got \"" + text + "\"";
  if (exit_on_error_) usage_error(message);
  throw std::invalid_argument(message);
}

Index ArgParser::option_int(const std::string& name, Index default_value) const {
  auto v = option(name);
  if (!v) return default_value;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (v->empty() || *end != '\0' || errno == ERANGE) bad_value(name, "an integer", *v);
  return parsed;
}

std::uint64_t ArgParser::option_uint64(const std::string& name,
                                       std::uint64_t default_value) const {
  auto v = option(name);
  if (!v) return default_value;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v->c_str(), &end, 0);
  if (v->empty() || *end != '\0' || errno == ERANGE || (*v)[0] == '-') {
    bad_value(name, "a non-negative integer (decimal or 0x hex)", *v);
  }
  return parsed;
}

std::int64_t ArgParser::option_bytes(const std::string& name, std::int64_t default_value) const {
  auto v = option(name);
  if (!v) return default_value;
  try {
    return parse_bytes(*v);
  } catch (const std::invalid_argument&) {
    bad_value(name, "a byte size such as 4096, 512KB or 8MB", *v);
  }
}

std::int64_t parse_bytes(const std::string& text) {
  FCU_CHECK(!text.empty(), "empty byte size");
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  FCU_CHECK(end != text.c_str() && value >= 0, "malformed byte size: " + text);
  std::string suffix(end);
  std::transform(suffix.begin(), suffix.end(), suffix.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  double scale = 1.0;
  if (suffix == "" || suffix == "B") {
    scale = 1.0;
  } else if (suffix == "KB" || suffix == "KIB" || suffix == "K") {
    scale = static_cast<double>(kKiB);
  } else if (suffix == "MB" || suffix == "MIB" || suffix == "M") {
    scale = static_cast<double>(kMiB);
  } else if (suffix == "GB" || suffix == "GIB" || suffix == "G") {
    scale = static_cast<double>(kGiB);
  } else {
    FCU_CHECK(false, "unknown byte suffix: " + text);
  }
  const double bytes = value * scale;
  FCU_CHECK(bytes < 9223372036854775808.0, "byte size out of range: " + text);  // 2^63
  return static_cast<std::int64_t>(bytes);
}

}  // namespace fusecu
