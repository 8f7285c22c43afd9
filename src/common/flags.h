// Strict parsing of the numeric values the command-line tools take. A value
// parses only when the whole text is the number: a sign where none is
// allowed, a suffix ("12x"), an empty string or an overflow is rejected, so
// a tool can report a usage error instead of silently running on a
// truncated or zero value.

#ifndef PRIVBAYES_COMMON_FLAGS_H_
#define PRIVBAYES_COMMON_FLAGS_H_

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>

namespace privbayes {

/// A whole non-negative decimal integer no larger than `max`.
inline std::optional<long long> ParseCount(std::string_view text,
                                           long long max) {
  unsigned long long value = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last ||
      value > static_cast<unsigned long long>(max)) {
    return std::nullopt;
  }
  return static_cast<long long>(value);
}

/// A finite, non-negative decimal number, such as a privacy budget ε.
inline std::optional<double> ParseNonNegativeDouble(std::string_view text) {
  double value = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last || !std::isfinite(value) ||
      std::signbit(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace privbayes

#endif  // PRIVBAYES_COMMON_FLAGS_H_
