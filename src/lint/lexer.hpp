// Lightweight C++ lexer for the repo-specific static analyzer
// (docs/STATIC_ANALYSIS.md). Not a compiler front end: it produces a flat
// token stream good enough for the lint rule catalog — identifiers,
// literals and punctuation with source positions, comments and
// preprocessor directives stripped.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mac3d::lint {

enum class Tok : std::uint8_t {
  kIdent,   ///< identifier or keyword
  kNumber,  ///< numeric literal (integer/float, any base)
  kString,  ///< string literal; `text` holds the *inner* characters
  kChar,    ///< character literal; `text` holds the inner characters
  kPunct,   ///< operator / punctuation (multi-character ops kept whole)
};

struct Token {
  Tok kind = Tok::kPunct;
  std::string text;
  std::uint32_t line = 0;  ///< 1-based
  std::uint32_t col = 0;   ///< 1-based
};

/// Tokenize a C++ translation unit. Comments and preprocessor directives
/// produce no tokens; string and character literals keep escape sequences
/// verbatim in `text`. The lexer never fails — unexpected bytes lex as
/// single-character punctuation.
[[nodiscard]] std::vector<Token> lex_cpp(std::string_view source);

}  // namespace mac3d::lint
