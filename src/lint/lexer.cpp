#include "lint/lexer.hpp"

#include <array>
#include <cctype>

namespace mac3d::lint {
namespace {

[[nodiscard]] bool is_ident_start(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] bool is_ident_char(char c) noexcept {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  std::vector<Token> run() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        advance();
        at_line_start_ = true;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        advance();
        continue;
      }
      if (c == '#' && at_line_start_) {
        directive();
        continue;
      }
      at_line_start_ = false;
      if (c == '/' && peek(1) == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') advance();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        advance();
        advance();
        while (pos_ < src_.size() &&
               !(src_[pos_] == '*' && peek(1) == '/')) {
          advance();
        }
        advance();
        advance();
        continue;
      }
      if (c == '"' || (c == 'R' && peek(1) == '"')) {
        string_literal();
        continue;
      }
      // Encoding-prefixed literals: L"", u"", U"", u8"", and char forms.
      if ((c == 'L' || c == 'u' || c == 'U') &&
          (peek(1) == '"' || peek(1) == '\'' ||
           (c == 'u' && peek(1) == '8' &&
            (peek(2) == '"' || peek(2) == '\'')))) {
        advance();
        if (src_[pos_] == '8') advance();
        if (src_[pos_] == '"') {
          string_literal();
        } else {
          char_literal();
        }
        continue;
      }
      if (c == '\'') {
        char_literal();
        continue;
      }
      if (is_ident_start(c)) {
        identifier();
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
          (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))) !=
                           0)) {
        number();
        continue;
      }
      punct();
    }
    return std::move(tokens_);
  }

 private:
  [[nodiscard]] char peek(std::size_t ahead) const noexcept {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  void advance() {
    if (src_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void emit(Tok kind, std::string text, std::uint32_t line,
            std::uint32_t col) {
    tokens_.push_back({kind, std::move(text), line, col});
  }

  /// Skip a full logical preprocessor line (joining `\`-continuations).
  /// Directives emit no tokens.
  void directive() {
    while (pos_ < src_.size() && src_[pos_] != '\n') {
      if (src_[pos_] == '\\' && peek(1) == '\n') advance();
      advance();
    }
    at_line_start_ = true;
  }

  void identifier() {
    const std::uint32_t line = line_;
    const std::uint32_t col = col_;
    std::string text;
    while (pos_ < src_.size() && is_ident_char(src_[pos_])) {
      text += src_[pos_];
      advance();
    }
    emit(Tok::kIdent, std::move(text), line, col);
  }

  void number() {
    const std::uint32_t line = line_;
    const std::uint32_t col = col_;
    std::string text;
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      const bool sign_after_exponent =
          (c == '+' || c == '-') && !text.empty() &&
          (text.back() == 'e' || text.back() == 'E' || text.back() == 'p' ||
           text.back() == 'P');
      if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '.' ||
          c == '\'' || sign_after_exponent) {
        text += c;
        advance();
        continue;
      }
      break;
    }
    emit(Tok::kNumber, std::move(text), line, col);
  }

  void string_literal() {
    const std::uint32_t line = line_;
    const std::uint32_t col = col_;
    std::string text;
    if (src_[pos_] == 'R') {
      // Raw string: R"delim( ... )delim".
      advance();  // R
      advance();  // "
      std::string delim;
      while (pos_ < src_.size() && src_[pos_] != '(') {
        delim += src_[pos_];
        advance();
      }
      advance();  // (
      const std::string closer = ")" + delim + "\"";
      while (pos_ < src_.size() &&
             src_.substr(pos_, closer.size()) != closer) {
        text += src_[pos_];
        advance();
      }
      for (std::size_t i = 0; i < closer.size() && pos_ < src_.size(); ++i) {
        advance();
      }
    } else {
      advance();  // opening quote
      while (pos_ < src_.size() && src_[pos_] != '"') {
        if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) {
          text += src_[pos_];
          advance();
        }
        if (src_[pos_] == '\n') break;  // unterminated; recover at EOL
        text += src_[pos_];
        advance();
      }
      if (pos_ < src_.size() && src_[pos_] == '"') advance();
    }
    emit(Tok::kString, std::move(text), line, col);
  }

  void char_literal() {
    const std::uint32_t line = line_;
    const std::uint32_t col = col_;
    std::string text;
    advance();  // opening quote
    while (pos_ < src_.size() && src_[pos_] != '\'') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) {
        text += src_[pos_];
        advance();
      }
      if (src_[pos_] == '\n') break;
      text += src_[pos_];
      advance();
    }
    if (pos_ < src_.size() && src_[pos_] == '\'') advance();
    emit(Tok::kChar, std::move(text), line, col);
  }

  void punct() {
    const std::uint32_t line = line_;
    const std::uint32_t col = col_;
    static constexpr std::array<std::string_view, 9> kThree = {
        "<<=", ">>=", "...", "->*", "<=>", "##=", "&&=", "||=", "::*"};
    static constexpr std::array<std::string_view, 19> kTwo = {
        "::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
        "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "##"};
    const std::string_view rest = src_.substr(pos_);
    for (const std::string_view op : kThree) {
      if (rest.substr(0, 3) == op) {
        emit(Tok::kPunct, std::string(op), line, col);
        advance();
        advance();
        advance();
        return;
      }
    }
    for (const std::string_view op : kTwo) {
      if (rest.substr(0, 2) == op) {
        emit(Tok::kPunct, std::string(op), line, col);
        advance();
        advance();
        return;
      }
    }
    emit(Tok::kPunct, std::string(1, src_[pos_]), line, col);
    advance();
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t col_ = 1;
  bool at_line_start_ = true;
  std::vector<Token> tokens_;
};

}  // namespace

std::vector<Token> lex_cpp(std::string_view source) {
  return Lexer(source).run();
}

}  // namespace mac3d::lint
