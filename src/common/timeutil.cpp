#include "common/timeutil.hpp"

#include <cstdio>

namespace fusecu {

std::string rfc3339_utc(std::time_t t) {
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &t);
#else
  gmtime_r(&t, &tm);
#endif
  // Room for six full-width ints (11 chars each) and the separators, so
  // no year, however far out, truncates.
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02dZ", tm.tm_year + 1900,
                tm.tm_mon + 1, tm.tm_mday, tm.tm_hour, tm.tm_min, tm.tm_sec);
  return std::string(buf);
}

std::string rfc3339_utc_now() { return rfc3339_utc(std::time(nullptr)); }

}  // namespace fusecu
