#ifndef CBQT_PARSER_PARSER_H_
#define CBQT_PARSER_PARSER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "parser/lexer.h"
#include "sql/query_block.h"

namespace cbqt {

/// Parses a SELECT statement into an (unbound) query-block tree.
///
/// Supported subset (everything the paper's examples Q1–Q18 need):
///   SELECT [DISTINCT] expr [AS alias], ... | *
///   FROM t [alias], ... | (subselect) alias | [LEFT [OUTER]] JOIN ... ON ...
///   WHERE <condition with EXISTS / [NOT] IN / ANY / ALL / scalar subqueries>
///   GROUP BY exprs | ROLLUP(...) | GROUPING SETS ((..), ..)
///   HAVING ... / ORDER BY expr [DESC], ... / ROWNUM predicates
///   set operators UNION [ALL] / INTERSECT / MINUS
///   aggregates COUNT(*)/COUNT/SUM/AVG/MIN/MAX([DISTINCT] x), CASE, BETWEEN,
///   IS [NOT] NULL, window aggregates `agg(x) OVER (PARTITION BY .. ORDER BY
///   ..)` (frame clauses accepted, fixed to RANGE UNBOUNDED PRECEDING ..
///   CURRENT ROW), and `/*+ no_merge(alias) */` hints after SELECT.
Result<std::unique_ptr<QueryBlock>> ParseSql(const std::string& sql);

/// ParseSql over an already tokenized statement (ParseSql is Tokenize +
/// ParseTokens), so a caller that needed the tokens first lexes only once.
/// Every literal parsed from a literal token records the token's position
/// in `tokens` (Expr::token_ordinal).
Result<std::unique_ptr<QueryBlock>> ParseTokens(
    const std::vector<Token>& tokens);

}  // namespace cbqt

#endif  // CBQT_PARSER_PARSER_H_
