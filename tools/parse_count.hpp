// Strict parsing for the harness CLIs' numeric flags (--points, --iters,
// --seed, --threads, --tolerance, ...). std::stoul and friends accept "-1"
// (wrapping it to 2^64-1) and "5x" (stopping at the 'x'), and std::stod
// also accepts "nan" and "-5"; a count flag here is decimal digits only — no
// sign, no whitespace, no trailing characters — within [min, the target
// type's maximum], and a decimal flag is digits with an optional fraction.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <system_error>

namespace kami::tools {

/// Thrown by parse_count on malformed or out-of-range input; each tool
/// answers it with its usage text and exit status 2.
struct BadCount {
  std::string text;
};

template <class T>
T parse_count(const std::string& text, T min = 0) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < static_cast<std::uint64_t>(min) ||
      value > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
    throw BadCount{text};
  return static_cast<T>(value);
}

/// A finite, non-negative decimal such as "200" or "0.5": digits, then
/// optionally '.' and more digits — no sign, exponent, "inf", "nan",
/// whitespace or trailing characters.
inline double parse_decimal(const std::string& text) {
  const auto digits_from = [&](std::size_t i) {
    std::size_t j = i;
    while (j < text.size() && text[j] >= '0' && text[j] <= '9') ++j;
    return j;
  };
  std::size_t i = digits_from(0);
  bool well_formed = i > 0;
  if (well_formed && i < text.size() && text[i] == '.') {
    const std::size_t frac_end = digits_from(i + 1);
    well_formed = frac_end > i + 1;
    i = frac_end;
  }
  double value = 0.0;
  const char* end = text.data() + text.size();
  if (!well_formed || i != text.size()) throw BadCount{text};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, std::chars_format::fixed);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) throw BadCount{text};
  return value;
}

}  // namespace kami::tools
