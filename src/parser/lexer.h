#ifndef CBQT_PARSER_LEXER_H_
#define CBQT_PARSER_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace cbqt {

enum class TokenKind {
  kEof,
  kIdent,    ///< identifier or keyword (lower-cased in `text`)
  kInt,      ///< integer literal
  kReal,     ///< floating-point literal
  kString,   ///< 'quoted' string literal (unquoted in `text`)
  kSymbol,   ///< punctuation / operator, in `text`: ( ) , . = <> < <= > >= + - * /
  kHint,     ///< /*+ ... */ optimizer hint, content in `text`
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string text;
  int64_t int_val = 0;
  double real_val = 0;
  size_t offset = 0;  ///< byte offset in the input, for error messages
};

/// The value of a kInt / kReal / kString token, exactly as the parser builds
/// its literal.
Value LiteralTokenValue(const Token& t);

/// Tokenizes `sql`. Identifiers are lower-cased (SQL case-insensitivity);
/// `--` line comments and `/* */` block comments are skipped, except `/*+ */`
/// hint comments which are returned as kHint tokens.
Result<std::vector<Token>> Tokenize(const std::string& sql);

}  // namespace cbqt

#endif  // CBQT_PARSER_LEXER_H_
