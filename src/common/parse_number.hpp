// Strict text-to-number conversion: the one parser behind every numeric
// CLI flag and every SimConfig override (`--set`, MAC3D_CONFIG).
#pragma once

#include <charconv>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/bitutil.hpp"

namespace mac3d {

/// Accepted values of a numeric input: [lo, hi], or (lo, hi] when
/// `above_lo`. Floating-point ranges never hold NaN or an infinity.
template <typename T>
struct NumberRange {
  T lo = std::numeric_limits<T>::lowest();
  T hi = std::numeric_limits<T>::max();
  bool above_lo = false;

  [[nodiscard]] constexpr bool contains(T value) const noexcept {
    return (above_lo ? value > lo : value >= lo) && value <= hi;
  }

  /// "an integer in [1, 256]", "a power of two in [32, 4096]", "a number
  /// in (0, inf)" — the accepted values, for one-line error messages.
  [[nodiscard]] std::string describe(bool pow2 = false) const {
    const char open = above_lo ? '(' : '[';
    if constexpr (std::is_floating_point_v<T>) {
      char text[80];
      if (hi == std::numeric_limits<T>::max()) {
        std::snprintf(text, sizeof(text), "a number in %c%g, inf)", open,
                      static_cast<double>(lo));
      } else {
        std::snprintf(text, sizeof(text), "a number in %c%g, %g]", open,
                      static_cast<double>(lo), static_cast<double>(hi));
      }
      return text;
    } else {
      return (pow2 ? "a power of two in " : "an integer in ") +
             std::string(1, open) + std::to_string(lo) + ", " +
             std::to_string(hi) + "]";
    }
  }
};

/// Finite and > 0.
template <typename T>
inline constexpr NumberRange<T> kPositive{T{0}, std::numeric_limits<T>::max(),
                                          true};
/// Finite and >= 0.
template <typename T>
inline constexpr NumberRange<T> kNonNegative{T{0},
                                             std::numeric_limits<T>::max()};

/// Parses all of `text` as a T inside `range`, or returns nullopt. Integers
/// are decimal or 0x-prefixed hex; floating point is decimal or exponent
/// form. Rejected: empty text, leading whitespace, any sign on an unsigned
/// type, a '+' sign, trailing characters, NaN and infinities, and values
/// outside `range` (which defaults to everything T holds).
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text,
                                            const NumberRange<T>& range = {}) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  const char* first = text.data();
  const char* const last = first + text.size();
  T value{};
  std::from_chars_result result{};
  if constexpr (std::is_floating_point_v<T>) {
    result = std::from_chars(first, last, value);
  } else {
    int base = 10;
    if (text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
      base = 16;
      first += 2;
    }
    result = std::from_chars(first, last, value, base);
  }
  if (result.ec != std::errc{} || result.ptr != last ||
      !range.contains(value)) {
    return std::nullopt;
  }
  return value;
}

/// A numeric input bound to a member of `Owner` (a config key, a CLI
/// flag) with the values it accepts.
template <typename Owner, typename T>
struct NumberField {
  T Owner::*member;
  NumberRange<T> range{};
  bool pow2 = false;  ///< also require a power of two (integers)

  [[nodiscard]] constexpr bool accepts(T value) const noexcept {
    if constexpr (std::is_integral_v<T>) {
      if (pow2 && !is_pow2(value)) return false;
    }
    return range.contains(value);
  }

  /// Parses `text` into `owner.*member`. False, with `owner` untouched,
  /// when the text is malformed or the value is not accepted.
  [[nodiscard]] bool set(Owner& owner, std::string_view text) const {
    const std::optional<T> value = parse_number<T>(text);
    if (!value || !accepts(*value)) return false;
    owner.*member = *value;
    return true;
  }
};

}  // namespace mac3d
