#ifndef CBQT_SQL_SIGNATURE_H_
#define CBQT_SQL_SIGNATURE_H_

#include <string>
#include <vector>

#include "sql/query_block.h"

namespace cbqt {

/// Canonical structural signature of a query block: two blocks with equal
/// signatures are semantically identical. The fuzz harness's round-trip
/// leg compares it across an unparse + re-parse. It is not a cache key: the
/// annotation cache keys blocks by their exact text (BlockToSql), because a
/// reused plan must be the one planning that exact block would produce.
///
/// Unlike the raw unparsing (BlockToSql), the signature canonicalizes the
/// orderings SQL leaves free, so semantically identical blocks written
/// differently collide on purpose:
///   - WHERE / HAVING / ON conjunct lists are sorted (conjunction is
///     commutative);
///   - commutative binary operators (=, <>, +, *, IS NOT DISTINCT FROM)
///     order their operands canonically, and mirrored comparisons are
///     normalized (a > b renders as b < a when b sorts first);
///   - AND / OR chains are flattened and their leaves sorted;
///   - maximal contiguous runs of non-lateral INNER FROM entries are sorted
///     (inner join order is declaratively free; outer/semi/anti boundaries
///     and lateral views stay in place and delimit the runs).
/// Everything order-sensitive — select list, set-op branches, GROUP BY keys
/// (grouping sets index into them), ORDER BY — is preserved verbatim, as
/// are aliases, join kinds, laterality and NO_MERGE hints.
std::string BlockSignature(const QueryBlock& qb);

/// Canonical signature of one expression (the expression-level piece of
/// BlockSignature). When `normalize_alias` is non-empty, column references
/// qualified by that alias render with the placeholder "$T" instead — used
/// by shared-scan keys so scans of the same table under different aliases
/// but identical predicates produce equal keys.
std::string ExprSignature(const Expr& e,
                          const std::string& normalize_alias = "");

/// Canonical signature of a conjunct list: each conjunct's ExprSignature,
/// sorted, joined by " & ". An empty list renders as "".
std::string ConjunctsSignature(const std::vector<ExprPtr>& conjuncts,
                               const std::string& normalize_alias = "");

/// True when `e` is self-contained relative to `alias`: every column
/// reference is local (corr_depth == 0) and qualified by `alias`, and the
/// expression contains no subqueries and no ROWNUM. Predicates passing this
/// test depend only on the scanned table's own row, so a scan filtered by
/// them produces the same stream for every query — the eligibility test of
/// the shared-scan registry (exec/shared_scan.h).
bool ExprUsesOnlyAlias(const Expr& e, const std::string& alias);

}  // namespace cbqt

#endif  // CBQT_SQL_SIGNATURE_H_
