#include "common/parse_error.hpp"

#include <sstream>

namespace fusecu {

std::string ParseError::format(const std::string& source, int line, int column,
                               const std::string& expected, const std::string& detail) {
  std::ostringstream os;
  os << (source.empty() ? "<input>" : source) << ":" << line;
  if (column > 0) os << ":" << column;
  os << ": expected " << expected;
  if (!detail.empty()) os << " — " << detail;
  return os.str();
}

ParseError::ParseError(std::string source, int line, int column, std::string expected,
                       std::string detail)
    : std::invalid_argument(format(source, line, column, expected, detail)),
      source_(std::move(source)),
      line_(line),
      column_(column),
      expected_(std::move(expected)) {}

std::pair<int, int> line_column_at(std::string_view text, std::size_t offset) {
  int line = 1;
  int column = 1;
  const std::size_t end = offset < text.size() ? offset : text.size();
  for (std::size_t i = 0; i < end; ++i) {
    if (text[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  return {line, column};
}

}  // namespace fusecu
