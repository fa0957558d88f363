#include "common/json.hpp"

#include <cmath>
#include <cstdlib>

namespace mac3d {
namespace {

/// Recursive-descent reader over the RFC 8259 grammar. The first error
/// wins and records the byte offset it was found at.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  bool document(JsonValue& out, std::string& error) {
    bool ok = value(out, 0);
    if (ok) {
      skip_ws();
      if (pos_ != text_.size()) ok = fail("trailing content after document");
    }
    if (!ok) error = error_;
    return ok;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(std::string_view what) {
    if (error_.empty()) {
      error_ = std::string(what) + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  [[nodiscard]] bool at(char c) const noexcept {
    return pos_ < text_.size() && text_[pos_] == c;
  }
  [[nodiscard]] bool at_digit() const noexcept {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (!at(c)) return false;
    ++pos_;
    return true;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    if (at('{')) return object(out, depth);
    if (at('[')) return array(out, depth);
    if (at('"')) {
      out.kind = JsonValue::Kind::kString;
      return string(out.string);
    }
    if (literal("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (literal("false")) {
      out.kind = JsonValue::Kind::kBool;
      return true;
    }
    if (literal("null")) return true;  // kind defaults to kNull
    return number(out);
  }

  bool object(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    if (consume('}')) return true;
    do {
      skip_ws();
      std::string key;
      if (!at('"')) return fail("expected object key");
      if (!string(key)) return false;
      if (!consume(':')) return fail("expected ':' after object key");
      JsonValue member;
      if (!value(member, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(member));
    } while (consume(','));
    return consume('}') || fail("expected ',' or '}' in object");
  }

  bool array(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    if (consume(']')) return true;
    do {
      out.items.emplace_back();
      if (!value(out.items.back(), depth + 1)) return false;
    } while (consume(','));
    return consume(']') || fail("expected ',' or ']' in array");
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      ++pos_;
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      switch (text_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i, ++pos_) {
            const int digit = pos_ < text_.size() ? hex_digit(text_[pos_]) : -1;
            if (digit < 0) return fail("\\u escape needs four hex digits");
            code = code * 16 + static_cast<unsigned>(digit);
          }
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          --pos_;
          return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  [[nodiscard]] static int hex_digit(char c) noexcept {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (!at_digit()) {
      return pos_ == start ? fail("expected value") : fail("malformed number");
    }
    if (at('0')) {
      ++pos_;
      if (at_digit()) return fail("malformed number (leading zero)");
    }
    while (at_digit()) ++pos_;
    if (at('.')) {
      ++pos_;
      if (!at_digit()) return fail("malformed number");
      while (at_digit()) ++pos_;
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (!at_digit()) return fail("malformed number");
      while (at_digit()) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::strtod(token.c_str(), nullptr);
    // strtod answers an overflow with +-HUGE_VAL: no double holds it.
    if (std::isinf(out.number)) {
      pos_ = start;
      return fail("number out of range");
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool parse_json(std::string_view text, JsonValue& out, std::string& error) {
  return Reader(text).document(out, error);
}

}  // namespace mac3d
