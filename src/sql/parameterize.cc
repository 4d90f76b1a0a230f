#include "sql/parameterize.h"

#include <utility>

#include "sql/expr_util.h"
#include "sql/unparser.h"

namespace cbqt {

namespace {

char TypeCode(ValueKind k) {
  switch (k) {
    case ValueKind::kNull:
      return 'n';
    case ValueKind::kInt64:
      return 'i';
    case ValueKind::kDouble:
      return 'd';
    case ValueKind::kString:
      return 's';
    case ValueKind::kBool:
      return 'b';
  }
  return '?';
}

/// The literal child of a column-vs-literal comparison, or nullptr.
Expr* ParamSlotOf(Expr* e) {
  if (e->kind != ExprKind::kBinary || !IsComparisonOp(e->bop)) return nullptr;
  Expr* l = e->children[0].get();
  Expr* r = e->children[1].get();
  if (l->kind == ExprKind::kLiteral && r->kind == ExprKind::kColumnRef) {
    return l;
  }
  if (r->kind == ExprKind::kLiteral && l->kind == ExprKind::kColumnRef) {
    return r;
  }
  return nullptr;
}

}  // namespace

ParameterizedStatement ParameterizeQuery(QueryBlock* qb) {
  ParameterizedStatement out;
  std::vector<Expr*> slots;
  // VisitAllExprs walks the tree in deterministic structural order, so slot
  // numbering is a pure function of the statement's shape.
  VisitAllExprs(qb, [&slots](Expr* e) {
    Expr* lit = ParamSlotOf(e);
    if (lit == nullptr || lit->param_index >= 0) return;
    lit->param_index = static_cast<int>(slots.size());
    slots.push_back(lit);
  });
  out.params.reserve(slots.size());
  for (Expr* s : slots) out.params.push_back(s->literal);

  // Render the key with slot markers in place of the parameterized values,
  // then restore. The marker string cannot collide with a real literal of
  // the same rendering because the per-slot type code below disambiguates.
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i]->literal = Value::Str("?" + std::to_string(i));
  }
  std::string key = BlockToSql(*qb);
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i]->literal = out.params[i];
  }

  AppendParamKeySuffix(out.params, &key);
  out.key = std::move(key);
  return out;
}

void AppendParamKeySuffix(const std::vector<Value>& params, std::string* key) {
  *key += "|t=";
  for (const Value& v : params) *key += TypeCode(v.kind());
  // Value-equality fingerprint: slot i -> first slot with an equal value.
  *key += "|eq=";
  for (size_t i = 0; i < params.size(); ++i) {
    size_t first = i;
    for (size_t j = 0; j < i; ++j) {
      if (params[j] == params[i]) {
        first = j;
        break;
      }
    }
    *key += std::to_string(first);
    *key += '.';
  }
}

void BindTreeParams(QueryBlock* qb, const std::vector<Value>& params) {
  VisitAllExprs(qb, [&params](Expr* e) {
    if (e->kind != ExprKind::kLiteral) return;
    if (e->param_index < 0 ||
        e->param_index >= static_cast<int>(params.size())) {
      return;
    }
    e->literal = params[static_cast<size_t>(e->param_index)];
  });
}

}  // namespace cbqt
