#pragma once
// The one number codec for FT-BESST's text formats: benchmarking CSVs,
// model files, INI experiments, scenario files, fault logs, CLI flags and
// the service's JSON.
//
// Writer: append_double / format_double print the shortest decimal that
// parses back to the exact binary64 value (std::to_chars), so what one run
// writes, the next reads back bit for bit.
//
// Reader: parse_number<T> reads the whole of `text` as one T with
// std::from_chars. There is no leading whitespace or '+', no trailing
// character, no hex, no locale, and a double must be finite. Anything else
// throws std::invalid_argument("<what> expects an integer|a number, got
// '<text>'"), so every malformed input names its field and its text.
//
// Header-only: ftbesst_json sits below ftbesst_obs and ftbesst_util in the
// link order and reads and writes with it too.

#include <charconv>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace ftbesst::util {

inline void append_double(std::string& out, double v) {
  char buf[32];  // the longest shortest form, "-2.2250738585072014e-308", is 24
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

[[nodiscard]] inline std::string format_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

/// `text` as a T under the reader's rule above, or nullopt.
template <typename T>
[[nodiscard]] std::optional<T> try_parse_number(std::string_view text) {
  static_assert(std::is_same_v<T, double> ||
                    (std::is_integral_v<T> && !std::is_same_v<T, bool>),
                "parse a double or an integer type");
  T value{};
  const char* end = text.data() + text.size();
  const auto res = std::from_chars(text.data(), end, value);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  if constexpr (std::is_same_v<T, double>)
    if (!std::isfinite(value)) return std::nullopt;
  return value;
}

/// `text` as a T under the reader's rule above; otherwise throws
/// std::invalid_argument naming `what` and `text`. Integers out of T's
/// range are rejected, not wrapped.
template <typename T>
[[nodiscard]] T parse_number(std::string_view text, std::string_view what) {
  if (const std::optional<T> v = try_parse_number<T>(text)) return *v;
  throw std::invalid_argument(
      std::string(what) +
      (std::is_integral_v<T> ? " expects an integer, got '"
                             : " expects a number, got '") +
      std::string(text) + "'");
}

}  // namespace ftbesst::util
