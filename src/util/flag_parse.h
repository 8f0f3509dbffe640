// Strict numeric parsing for command-line flag values, shared by the
// operational binaries (tools/): a value is accepted only when the whole
// string parses and lies in range, so a typo fails loudly instead of
// silently becoming 0 or wrapping.

#ifndef LEVELHEADED_UTIL_FLAG_PARSE_H_
#define LEVELHEADED_UTIL_FLAG_PARSE_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace levelheaded {

/// Largest TCP port number.
constexpr uint64_t kMaxPort = 65535;

/// Parses all of `text` as a decimal integer in [min, max]: no sign, no
/// trailing characters. False for a missing value (nullptr).
inline bool ParseCount(const char* text, uint64_t min, uint64_t max,
                       uint64_t* out) {
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || v < min || v > max) return false;
  *out = v;
  return true;
}

/// Parses all of `text` as a finite, non-negative number of milliseconds.
inline bool ParseMillis(const char* text, double* out) {
  if (text == nullptr) return false;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace levelheaded

#endif  // LEVELHEADED_UTIL_FLAG_PARSE_H_
