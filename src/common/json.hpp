// The one JSON writer and the one JSON reader. The writer helpers serve
// StatSet::to_json, the observability layer (src/obs/) and the bench
// report emitter; the reader backs report-diff, analyze and lint.
#pragma once

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mac3d {

/// Escape a string for inclusion inside JSON double quotes.
inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Quote + escape in one step.
inline std::string json_quote(std::string_view text) {
  return '"' + json_escape(text) + '"';
}

/// 2^53: every whole number up to it is a double exactly, so it is the
/// largest count a JSON number can carry.
inline constexpr double kJsonMaxCount = 9007199254740992.0;

/// Format a double as a JSON number token at full round-trip precision.
/// Integral values print without an exponent/fraction; non-finite values
/// (illegal in JSON) degrade to null.
inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  // Integers up to 2^53 round-trip exactly and read better than 1e+06.
  if (value == std::floor(value) && std::fabs(value) < kJsonMaxCount) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<std::int64_t>(value));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Format an unsigned 64-bit counter as a JSON number token.
inline std::string json_number(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

/// Read a parsed JSON number as a count. True, with `out` set, when
/// `value` is finite, whole and in [0, 2^53]; false otherwise, and
/// nothing is cast: a float-to-integer conversion out of range is
/// undefined behaviour.
[[nodiscard]] inline bool json_count(double value,
                                     std::uint64_t& out) noexcept {
  if (!(value >= 0.0 && value <= kJsonMaxCount) ||
      value != std::floor(value)) {
    return false;
  }
  out = static_cast<std::uint64_t>(value);
  return true;
}

/// One parsed JSON value; object members keep document order.
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;  ///< kArray elements
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  /// Object member lookup (nullptr when absent or not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [name, value] : members) {
      if (name == key) return &value;
    }
    return nullptr;
  }

  /// Convenience accessors that tolerate absent/mistyped members.
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fallback = "") const {
    const JsonValue* value = find(key);
    return value != nullptr && value->kind == Kind::kString ? value->string
                                                            : fallback;
  }
  [[nodiscard]] double number_or(std::string_view key,
                                 double fallback = 0.0) const noexcept {
    const JsonValue* value = find(key);
    return value != nullptr && value->kind == Kind::kNumber ? value->number
                                                            : fallback;
  }
};

/// Parses all of `text` as one RFC 8259 document into `out`, nesting at
/// most 64 deep. Returns false with a one-line "... at byte N" `error` on
/// anything else: a '+' sign, a leading '.' or zero, a number too large
/// for a double (1e400), a \u escape without four hex digits, a raw
/// control character in a string, trailing content. A \u escape below
/// 0x80 decodes to that byte (json_escape's \u00XX round-trips); any
/// other code point decodes to '?'.
[[nodiscard]] bool parse_json(std::string_view text, JsonValue& out,
                              std::string& error);

}  // namespace mac3d
