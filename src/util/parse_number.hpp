// Strict numeric parsing for command-line flag values.
//
// std::atoi("3abc") is 3 and std::atoi("") is 0, so a typo'd flag value
// silently runs a different experiment. parse_number accepts exactly one
// base-10 number spanning the whole text and in range of the target type,
// and otherwise throws a std::runtime_error that names the flag:
//
//   parse_number<int>("--trials", "3abc")
//     → "--trials: expected an integer, got '3abc'"
#pragma once

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace cid {

/// Parses `text` as one T (an integer type, or double). Rejects empty
/// input, leading or trailing junk (whitespace and a '+' sign included),
/// out-of-range values, a '-' sign for unsigned T, and non-finite doubles.
template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  static_assert(std::is_integral_v<T> || std::is_same_v<T, double>,
                "parse_number parses integers and doubles");
  constexpr std::string_view expected =
      std::is_same_v<T, double>
          ? "expected a number"
          : (std::is_unsigned_v<T> ? "expected a non-negative integer"
                                   : "expected an integer");
  const auto error = [&](std::string_view why) {
    return std::runtime_error(std::string(flag) + ": " + std::string(why) +
                              ", got '" + std::string(text) + "'");
  };
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) throw error("value out of range");
  if (ec != std::errc() || ptr != end) throw error(expected);
  if constexpr (std::is_same_v<T, double>) {
    if (!std::isfinite(value)) throw error("expected a finite number");
  }
  return value;
}

}  // namespace cid
