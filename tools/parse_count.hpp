// Strict parsing for the harness CLIs' numeric flags (--points, --iters,
// --seed, --threads, ...). std::stoul and friends accept "-1" (wrapping it
// to 2^64-1) and "5x" (stopping at the 'x'); a count flag here is decimal
// digits only — no sign, no whitespace, no trailing characters — within
// the target type's range.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <system_error>

namespace kami::tools {

/// Thrown by parse_count on malformed input; each tool answers it with its
/// usage text and exit status 2.
struct BadCount {
  std::string text;
};

template <class T>
T parse_count(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end ||
      value > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
    throw BadCount{text};
  return static_cast<T>(value);
}

}  // namespace kami::tools
