#include "parser/lexer.h"

#include <cctype>
#include <string_view>

namespace cbqt {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

bool IsIdentChar(char c) {
  return IsIdentStart(c) || std::isdigit(static_cast<unsigned char>(c));
}

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// Sets `out` to sql[start, end) lower-cased (ASCII, like ToLower).
void AssignLower(const std::string& sql, size_t start, size_t end,
                 std::string* out) {
  out->assign(sql, start, end - start);
  for (char& c : *out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

constexpr std::string_view kSingleCharSymbols = "(),.=+-*/;";

}  // namespace

Value LiteralTokenValue(const Token& t) {
  switch (t.kind) {
    case TokenKind::kInt:
      return Value::Int(t.int_val);
    case TokenKind::kReal:
      return Value::Real(t.real_val);
    default:
      return Value::Str(t.text);
  }
}

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> out;
  size_t i = 0;
  size_t n = sql.size();
  // Statements average well over four bytes per token; one reservation
  // covers nearly every statement without regrowth.
  out.reserve(n / 4 + 2);
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && sql[i + 1] == '*') {
      bool is_hint = i + 2 < n && sql[i + 2] == '+';
      size_t start = i + (is_hint ? 3 : 2);
      size_t end = sql.find("*/", start);
      if (end == std::string::npos) {
        return Status::ParseError("unterminated comment");
      }
      if (is_hint) {
        Token& t = out.emplace_back();
        t.kind = TokenKind::kHint;
        AssignLower(sql, start, end, &t.text);
        t.offset = i;
      }
      i = end + 2;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(sql[i])) ++i;
      Token& t = out.emplace_back();
      t.kind = TokenKind::kIdent;
      t.offset = start;
      AssignLower(sql, start, i, &t.text);
      continue;
    }
    if (IsDigit(c)) {
      size_t start = i;
      bool is_real = false;
      while (i < n && IsDigit(sql[i])) ++i;
      if (i < n && sql[i] == '.' && i + 1 < n && IsDigit(sql[i + 1])) {
        is_real = true;
        ++i;
        while (i < n && IsDigit(sql[i])) ++i;
      }
      if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
        size_t j = i + 1;
        if (j < n && (sql[j] == '+' || sql[j] == '-')) ++j;
        if (j < n && IsDigit(sql[j])) {
          is_real = true;
          i = j;
          while (i < n && IsDigit(sql[i])) ++i;
        }
      }
      Token& t = out.emplace_back();
      t.offset = start;
      t.text.assign(sql, start, i - start);
      if (is_real) {
        t.kind = TokenKind::kReal;
        t.real_val = std::stod(t.text);
      } else {
        t.kind = TokenKind::kInt;
        t.int_val = std::stoll(t.text);
      }
      continue;
    }
    if (c == '\'') {
      size_t start = i;
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        size_t quote = sql.find('\'', i);
        if (quote == std::string::npos) {
          i = n;
          break;
        }
        text.append(sql, i, quote - i);
        if (quote + 1 < n && sql[quote + 1] == '\'') {  // escaped quote
          text += '\'';
          i = quote + 2;
          continue;
        }
        closed = true;
        i = quote + 1;
        break;
      }
      if (!closed) return Status::ParseError("unterminated string literal");
      Token& t = out.emplace_back();
      t.kind = TokenKind::kString;
      t.offset = start;
      t.text = std::move(text);
      continue;
    }
    // Operators: the longest match wins; `!=` normalizes to `<>`.
    std::string_view sym;
    char next = i + 1 < n ? sql[i + 1] : '\0';
    if (c == '<') {
      if (next == '=') {
        sym = "<=";
      } else if (next == '>') {
        sym = "<>";
      } else {
        sym = "<";
      }
    } else if (c == '>') {
      sym = next == '=' ? ">=" : ">";
    } else if (c == '!') {
      if (next != '=') return Status::ParseError("unexpected character '!'");
      sym = "<>";  // as wide as "!="
    } else if (kSingleCharSymbols.find(c) != std::string_view::npos) {
      sym = std::string_view(&sql[i], 1);
    } else {
      return Status::ParseError(std::string("unexpected character '") + c +
                                "' at offset " + std::to_string(i));
    }
    Token& t = out.emplace_back();
    t.kind = TokenKind::kSymbol;
    t.offset = i;
    t.text.assign(sym);
    i += sym.size();
  }
  Token& eof = out.emplace_back();
  eof.kind = TokenKind::kEof;
  eof.offset = n;
  return out;
}

}  // namespace cbqt
