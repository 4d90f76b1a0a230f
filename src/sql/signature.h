#ifndef CBQT_SQL_SIGNATURE_H_
#define CBQT_SQL_SIGNATURE_H_

#include <string>

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

}  // namespace cbqt

#endif  // CBQT_SQL_SIGNATURE_H_
