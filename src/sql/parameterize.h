#ifndef CBQT_SQL_PARAMETERIZE_H_
#define CBQT_SQL_PARAMETERIZE_H_

#include <string>
#include <vector>

#include "common/value.h"
#include "sql/query_block.h"

namespace cbqt {

/// Result of the literal-parameterization pass: the extracted parameter
/// values (in slot order) and the normalized cache key of the statement.
struct ParameterizedStatement {
  std::vector<Value> params;
  /// Cache key: the statement unparsed with every parameterized literal
  /// replaced by its slot marker, plus a per-slot type code and a
  /// value-equality fingerprint (see ParameterizeQuery). Two statements with
  /// equal keys differ at most in the parameter values themselves, in a way
  /// that is guaranteed not to change any transformation-legality decision.
  std::string key;
};

/// Literal parameterization for the engine-level plan cache: annotates, in
/// place, every literal of `qb` that is safe to share across values — a
/// literal compared directly against a column reference (`WHERE id = 7`,
/// `7 < t.x`, join/having conditions, any nesting depth) — with a parameter
/// slot (Expr::param_index), and returns the extracted values plus the
/// normalized key.
///
/// The annotated literals keep their concrete values, so the tree optimizes,
/// costs, and executes exactly as before; the slot only records *identity*
/// so a cached plan can later be re-bound (BindTreeParams / the plan cache's
/// RebindPlanParams).
///
/// Safety of the sharing rule:
///  - ROWNUM limits are excluded structurally (ROWNUM is its own expression
///    kind, not a column ref), so the binder's extraction of `ROWNUM <= k`
///    into the baked-in QueryBlock::rownum_limit never involves a
///    parameterized literal.
///  - Literals anywhere else (select lists, arithmetic, CASE legs, IN-lists
///    against subqueries' select items, ...) stay constants and render into
///    the key verbatim, so two statements share an entry only when those
///    agree.
///  - The key carries one type code per slot (int/real/string/bool/null), so
///    `id = 7` and `id = 'x'` never share an entry.
///  - The key carries a value-equality fingerprint: for each slot, the first
///    slot holding an equal value. Transformations that compare literal
///    values positionally (join factorization's BlockEquals matching,
///    predicate move-around's conjunct dedup) therefore make identical
///    decisions for every statement mapping to the key.
///
/// The key is the rendered tree followed by AppendParamKeySuffix(params).
/// The slot assignment and the rendered part depend only on the tree's
/// structure and its unparameterized literals, so the plan cache's cursor
/// table (cbqt/plan_cache.h) records both once per statement shape and
/// rebuilds the key of a later statement of that shape from its tokens
/// alone: it never re-derives the sharing rule, it replays this function's
/// result.
ParameterizedStatement ParameterizeQuery(QueryBlock* qb);

/// Appends the per-slot part of a ParameterizedStatement key to `key`: the
/// type code of each parameter and the value-equality fingerprint.
void AppendParamKeySuffix(const std::vector<Value>& params, std::string* key);

/// Overwrites the value of every parameterized literal in `qb` with the
/// value of its slot. Slots outside `params` are left untouched.
void BindTreeParams(QueryBlock* qb, const std::vector<Value>& params);

}  // namespace cbqt

#endif  // CBQT_SQL_PARAMETERIZE_H_
