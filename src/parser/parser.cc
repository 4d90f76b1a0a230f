#include "parser/parser.h"

#include <string_view>
#include <vector>

#include "common/str_util.h"
#include "parser/lexer.h"
#include "sql/expr_util.h"

namespace cbqt {

namespace {

/// Recursive-descent parser over the token stream. Methods set `error_` and
/// return null on failure; the top level converts that into a Status.
class Parser {
 public:
  explicit Parser(const std::vector<Token>& tokens) : tokens_(tokens) {}

  Result<std::unique_ptr<QueryBlock>> ParseStatement() {
    auto qb = ParseSelect();
    if (!ok()) return error_;
    AcceptSymbol(";");
    if (Cur().kind != TokenKind::kEof) {
      return Status::ParseError("trailing input after statement: '" +
                                Cur().text + "'");
    }
    return qb;
  }

 private:
  // ---- token helpers ----
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t k = 1) const {
    size_t i = pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool ok() const { return error_.ok(); }
  void Fail(const std::string& msg) {
    if (error_.ok()) {
      error_ = Status::ParseError(msg + " (near offset " +
                                  std::to_string(Cur().offset) + ")");
    }
  }

  // Robustness guard: the parser is recursive-descent, so adversarially
  // nested input (parentheses, subqueries) would otherwise overflow the
  // stack. Every recursion entry point bumps the depth; past the limit the
  // parse fails with a clean Status instead of crashing.
  static constexpr int kMaxNestingDepth = 200;
  bool EnterNesting() {
    if (++depth_ > kMaxNestingDepth) {
      Fail("query nesting exceeds depth limit of " +
           std::to_string(kMaxNestingDepth));
      return false;
    }
    return true;
  }
  void LeaveNesting() { --depth_; }

  bool AtKeyword(std::string_view kw) const {
    return Cur().kind == TokenKind::kIdent && Cur().text == kw;
  }
  bool AtSymbol(std::string_view sym) const {
    return Cur().kind == TokenKind::kSymbol && Cur().text == sym;
  }
  bool AcceptKeyword(std::string_view kw) {
    if (AtKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptSymbol(std::string_view sym) {
    if (AtSymbol(sym)) {
      Advance();
      return true;
    }
    return false;
  }
  void ExpectKeyword(std::string_view kw) {
    if (!AcceptKeyword(kw)) {
      Fail("expected '" + ToUpper(std::string(kw)) + "'");
    }
  }
  void ExpectSymbol(std::string_view sym) {
    if (!AcceptSymbol(sym)) Fail("expected '" + std::string(sym) + "'");
  }
  std::string ExpectIdent() {
    if (Cur().kind != TokenKind::kIdent) {
      Fail("expected identifier");
      return "";
    }
    std::string name = Cur().text;
    Advance();
    return name;
  }

  static bool IsReserved(const std::string& w) {
    static const char* kReserved[] = {
        "select", "distinct", "from",  "where",   "group", "by",    "having",
        "order",  "union",    "all",   "intersect", "minus", "join", "inner",
        "left",   "outer",    "on",    "as",      "and",   "or",    "not",
        "exists", "in",       "is",    "null",    "between", "any", "case",
        "when",   "then",     "else",  "end",     "asc",   "desc",  "over",
        "lateral"};
    for (const char* r : kReserved) {
      if (w == r) return true;
    }
    return false;
  }

  // ---- grammar ----

  std::unique_ptr<QueryBlock> ParseSelect() {
    auto left = ParseSelectBlock();
    if (!ok()) return nullptr;
    // Set operators, left-associative; same-kind UNION ALL chains flatten
    // into one multi-branch compound block (join factorization needs that).
    while (ok()) {
      SetOpKind op = SetOpKind::kNone;
      if (AtKeyword("union")) {
        Advance();
        op = AcceptKeyword("all") ? SetOpKind::kUnionAll : SetOpKind::kUnion;
      } else if (AtKeyword("intersect")) {
        Advance();
        op = SetOpKind::kIntersect;
      } else if (AtKeyword("minus")) {
        Advance();
        op = SetOpKind::kMinus;
      } else {
        break;
      }
      auto right = ParseSelectBlock();
      if (!ok()) return nullptr;
      if (left->set_op == op && op == SetOpKind::kUnionAll) {
        left->branches.push_back(std::move(right));
      } else {
        auto compound = std::make_unique<QueryBlock>();
        compound->set_op = op;
        compound->branches.push_back(std::move(left));
        compound->branches.push_back(std::move(right));
        left = std::move(compound);
      }
    }
    return left;
  }

  std::unique_ptr<QueryBlock> ParseSelectBlock() {
    if (!EnterNesting()) return nullptr;
    auto qb = ParseSelectBlockInner();
    LeaveNesting();
    return qb;
  }

  std::unique_ptr<QueryBlock> ParseSelectBlockInner() {
    if (AcceptSymbol("(")) {
      auto qb = ParseSelect();
      if (!ok()) return nullptr;
      ExpectSymbol(")");
      return qb;
    }
    ExpectKeyword("select");
    if (!ok()) return nullptr;
    auto qb = std::make_unique<QueryBlock>();
    std::vector<std::string> no_merge_aliases;
    if (Cur().kind == TokenKind::kHint) {
      ParseHints(Cur().text, &no_merge_aliases);
      Advance();
    }
    qb->distinct = AcceptKeyword("distinct");
    // Select list.
    if (AcceptSymbol("*")) {
      // '*' expands during binding; represent as a single item with a star
      // marker column ref.
      SelectItem item;
      item.expr = MakeColumnRef("", "*");
      qb->select.push_back(std::move(item));
    } else {
      do {
        SelectItem item;
        item.expr = ParseExpr();
        if (!ok()) return nullptr;
        if (AcceptKeyword("as")) {
          item.alias = ExpectIdent();
        } else if (Cur().kind == TokenKind::kIdent && !IsReserved(Cur().text)) {
          item.alias = Cur().text;
          Advance();
        }
        qb->select.push_back(std::move(item));
      } while (AcceptSymbol(","));
    }
    // FROM.
    if (AcceptKeyword("from")) {
      ParseFromList(qb.get());
      if (!ok()) return nullptr;
    }
    // WHERE.
    if (AcceptKeyword("where")) {
      ExprPtr cond = ParseExpr();
      if (!ok()) return nullptr;
      SplitConjuncts(std::move(cond), &qb->where);
    }
    // GROUP BY.
    if (AtKeyword("group")) {
      Advance();
      ExpectKeyword("by");
      ParseGroupBy(qb.get());
      if (!ok()) return nullptr;
    }
    // HAVING.
    if (AcceptKeyword("having")) {
      ExprPtr cond = ParseExpr();
      if (!ok()) return nullptr;
      SplitConjuncts(std::move(cond), &qb->having);
    }
    // ORDER BY.
    if (AtKeyword("order")) {
      Advance();
      ExpectKeyword("by");
      do {
        OrderItem oi;
        oi.expr = ParseExpr();
        if (!ok()) return nullptr;
        if (AcceptKeyword("desc")) {
          oi.ascending = false;
        } else {
          AcceptKeyword("asc");
        }
        qb->order_by.push_back(std::move(oi));
      } while (AcceptSymbol(","));
    }
    for (const std::string& alias : no_merge_aliases) {
      int idx = qb->FindFrom(alias);
      if (idx >= 0) qb->from[static_cast<size_t>(idx)].no_merge = true;
    }
    return qb;
  }

  void ParseHints(const std::string& hint_text,
                  std::vector<std::string>* no_merge_aliases) {
    // Recognized: no_merge(alias). Everything else is ignored, like a real
    // optimizer would.
    size_t pos = hint_text.find("no_merge");
    while (pos != std::string::npos) {
      size_t open = hint_text.find('(', pos);
      size_t close = hint_text.find(')', pos);
      if (open != std::string::npos && close != std::string::npos &&
          close > open) {
        std::string alias = hint_text.substr(open + 1, close - open - 1);
        // Trim whitespace.
        while (!alias.empty() && std::isspace(static_cast<unsigned char>(
                                     alias.front()))) {
          alias.erase(alias.begin());
        }
        while (!alias.empty() &&
               std::isspace(static_cast<unsigned char>(alias.back()))) {
          alias.pop_back();
        }
        no_merge_aliases->push_back(alias);
      }
      pos = hint_text.find("no_merge", pos + 1);
    }
  }

  void ParseFromList(QueryBlock* qb) {
    ParseFromItem(qb, JoinKind::kInner, /*has_on=*/false);
    if (!ok()) return;
    while (ok()) {
      if (AcceptSymbol(",")) {
        ParseFromItem(qb, JoinKind::kInner, /*has_on=*/false);
        continue;
      }
      if (AtKeyword("join") || AtKeyword("inner") || AtKeyword("left")) {
        JoinKind kind = JoinKind::kInner;
        if (AcceptKeyword("left")) {
          AcceptKeyword("outer");
          kind = JoinKind::kLeftOuter;
        } else {
          AcceptKeyword("inner");
        }
        ExpectKeyword("join");
        if (!ok()) return;
        ParseFromItem(qb, kind, /*has_on=*/true);
        continue;
      }
      break;
    }
  }

  void ParseFromItem(QueryBlock* qb, JoinKind kind, bool has_on) {
    TableRef tr;
    tr.join = kind;
    bool lateral = AcceptKeyword("lateral");
    if (AtSymbol("(")) {
      Advance();
      tr.derived = ParseSelect();
      if (!ok()) return;
      ExpectSymbol(")");
      tr.lateral = lateral;
      if (Cur().kind == TokenKind::kIdent && !IsReserved(Cur().text)) {
        tr.alias = Cur().text;
        Advance();
      } else {
        tr.alias = "dt_" + std::to_string(qb->from.size());
      }
    } else {
      tr.table_name = ExpectIdent();
      if (!ok()) return;
      tr.alias = tr.table_name;
      if (Cur().kind == TokenKind::kIdent && !IsReserved(Cur().text)) {
        tr.alias = Cur().text;
        Advance();
      }
    }
    if (has_on) {
      ExpectKeyword("on");
      if (!ok()) return;
      ExprPtr cond = ParseExpr();
      if (!ok()) return;
      if (kind == JoinKind::kInner) {
        // Inner-join ON conditions are plain WHERE conjuncts in the
        // declarative query tree.
        SplitConjuncts(std::move(cond), &qb->where);
      } else {
        SplitConjuncts(std::move(cond), &tr.join_conds);
      }
    }
    qb->from.push_back(std::move(tr));
  }

  void ParseGroupBy(QueryBlock* qb) {
    if (AtKeyword("rollup")) {
      Advance();
      ExpectSymbol("(");
      do {
        qb->group_by.push_back(ParseExpr());
        if (!ok()) return;
      } while (AcceptSymbol(","));
      ExpectSymbol(")");
      // ROLLUP(a,b,c) = GROUPING SETS ((a,b,c),(a,b),(a),())
      int n = static_cast<int>(qb->group_by.size());
      for (int len = n; len >= 0; --len) {
        std::vector<int> set;
        for (int i = 0; i < len; ++i) set.push_back(i);
        qb->grouping_sets.push_back(std::move(set));
      }
      return;
    }
    if (AtKeyword("grouping")) {
      Advance();
      ExpectKeyword("sets");
      ExpectSymbol("(");
      do {
        ExpectSymbol("(");
        std::vector<int> set;
        if (!AtSymbol(")")) {
          do {
            ExprPtr key = ParseExpr();
            if (!ok()) return;
            // Deduplicate identical keys across sets.
            int idx = -1;
            for (size_t i = 0; i < qb->group_by.size(); ++i) {
              if (ExprEquals(*qb->group_by[i], *key)) {
                idx = static_cast<int>(i);
                break;
              }
            }
            if (idx < 0) {
              idx = static_cast<int>(qb->group_by.size());
              qb->group_by.push_back(std::move(key));
            }
            set.push_back(idx);
          } while (AcceptSymbol(","));
        }
        ExpectSymbol(")");
        qb->grouping_sets.push_back(std::move(set));
      } while (AcceptSymbol(","));
      ExpectSymbol(")");
      return;
    }
    do {
      qb->group_by.push_back(ParseExpr());
      if (!ok()) return;
    } while (AcceptSymbol(","));
  }

  // ---- expressions ----

  ExprPtr ParseExpr() {
    if (!EnterNesting()) return nullptr;
    ExprPtr e = ParseOr();
    LeaveNesting();
    return e;
  }

  ExprPtr ParseOr() {
    ExprPtr left = ParseAnd();
    while (ok() && AcceptKeyword("or")) {
      ExprPtr right = ParseAnd();
      if (!ok()) return nullptr;
      left = MakeBinary(BinaryOp::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  ExprPtr ParseAnd() {
    ExprPtr left = ParseNot();
    while (ok() && AcceptKeyword("and")) {
      ExprPtr right = ParseNot();
      if (!ok()) return nullptr;
      left = MakeBinary(BinaryOp::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  ExprPtr ParseNot() {
    if (AcceptKeyword("not")) {
      ExprPtr inner = ParseNot();
      if (!ok()) return nullptr;
      // NOT EXISTS / NOT IN become their own subquery kinds.
      if (inner->kind == ExprKind::kSubquery) {
        if (inner->subkind == SubqueryKind::kExists) {
          inner->subkind = SubqueryKind::kNotExists;
          return inner;
        }
        if (inner->subkind == SubqueryKind::kIn) {
          inner->subkind = SubqueryKind::kNotIn;
          return inner;
        }
      }
      return MakeUnary(UnaryOp::kNot, std::move(inner));
    }
    return ParseComparison();
  }

  BinaryOp SymbolToCmp(const std::string& s) {
    if (s == "=") return BinaryOp::kEq;
    if (s == "<>") return BinaryOp::kNe;
    if (s == "<") return BinaryOp::kLt;
    if (s == "<=") return BinaryOp::kLe;
    if (s == ">") return BinaryOp::kGt;
    return BinaryOp::kGe;
  }

  ExprPtr ParseComparison() {
    ExprPtr left = ParseAdditive();
    if (!ok()) return nullptr;
    // IS [NOT] NULL
    if (AtKeyword("is")) {
      Advance();
      bool negated = AcceptKeyword("not");
      ExpectKeyword("null");
      return MakeUnary(negated ? UnaryOp::kIsNotNull : UnaryOp::kIsNull,
                       std::move(left));
    }
    // [NOT] BETWEEN a AND b
    bool negated = false;
    if (AtKeyword("not") &&
        (Peek().kind == TokenKind::kIdent &&
         (Peek().text == "between" || Peek().text == "in"))) {
      Advance();
      negated = true;
    }
    if (AcceptKeyword("between")) {
      ExprPtr lo = ParseAdditive();
      if (!ok()) return nullptr;
      ExpectKeyword("and");
      ExprPtr hi = ParseAdditive();
      if (!ok()) return nullptr;
      ExprPtr ge =
          MakeBinary(BinaryOp::kGe, left->Clone(), std::move(lo));
      ExprPtr le = MakeBinary(BinaryOp::kLe, std::move(left), std::move(hi));
      ExprPtr both = MakeBinary(BinaryOp::kAnd, std::move(ge), std::move(le));
      if (negated) return MakeUnary(UnaryOp::kNot, std::move(both));
      return both;
    }
    if (AcceptKeyword("in")) {
      return ParseInRhs(std::move(left), negated);
    }
    if (Cur().kind == TokenKind::kSymbol &&
        (Cur().text == "=" || Cur().text == "<>" || Cur().text == "<" ||
         Cur().text == "<=" || Cur().text == ">" || Cur().text == ">=")) {
      BinaryOp op = SymbolToCmp(Cur().text);
      Advance();
      // cmp ANY/ALL (subquery)
      if (AtKeyword("any") || AtKeyword("all")) {
        bool is_any = Cur().text == "any";
        Advance();
        ExpectSymbol("(");
        auto sub = ParseSelect();
        if (!ok()) return nullptr;
        ExpectSymbol(")");
        auto e = MakeSubquery(
            is_any ? SubqueryKind::kAnyCmp : SubqueryKind::kAllCmp,
            std::move(sub));
        e->sub_cmp = op;
        e->children.push_back(std::move(left));
        return e;
      }
      ExprPtr right = ParseAdditive();
      if (!ok()) return nullptr;
      return MakeBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  ExprPtr ParseInRhs(ExprPtr left, bool negated) {
    ExpectSymbol("(");
    if (!ok()) return nullptr;
    std::vector<ExprPtr> left_items;
    if (left->kind == ExprKind::kFuncCall && left->func_name == "$row") {
      left_items = std::move(left->children);
    } else {
      left_items.push_back(std::move(left));
    }
    if (AtKeyword("select")) {
      auto sub = ParseSelect();
      if (!ok()) return nullptr;
      ExpectSymbol(")");
      auto e = MakeSubquery(negated ? SubqueryKind::kNotIn : SubqueryKind::kIn,
                            std::move(sub));
      e->children = std::move(left_items);
      return e;
    }
    // IN value list: expand to OR of equalities (no subquery involved).
    if (left_items.size() != 1) {
      Fail("row IN requires a subquery right-hand side");
      return nullptr;
    }
    std::vector<ExprPtr> eqs;
    do {
      ExprPtr v = ParseExpr();
      if (!ok()) return nullptr;
      eqs.push_back(
          MakeBinary(BinaryOp::kEq, left_items[0]->Clone(), std::move(v)));
    } while (AcceptSymbol(","));
    ExpectSymbol(")");
    ExprPtr out = std::move(eqs[0]);
    for (size_t i = 1; i < eqs.size(); ++i) {
      out = MakeBinary(BinaryOp::kOr, std::move(out), std::move(eqs[i]));
    }
    if (negated) return MakeUnary(UnaryOp::kNot, std::move(out));
    return out;
  }

  ExprPtr ParseAdditive() {
    ExprPtr left = ParseMultiplicative();
    while (ok() && (AtSymbol("+") || AtSymbol("-"))) {
      BinaryOp op = AtSymbol("+") ? BinaryOp::kAdd : BinaryOp::kSub;
      Advance();
      ExprPtr right = ParseMultiplicative();
      if (!ok()) return nullptr;
      left = MakeBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  ExprPtr ParseMultiplicative() {
    ExprPtr left = ParseUnary();
    while (ok() && (AtSymbol("*") || AtSymbol("/"))) {
      BinaryOp op = AtSymbol("*") ? BinaryOp::kMul : BinaryOp::kDiv;
      Advance();
      ExprPtr right = ParseUnary();
      if (!ok()) return nullptr;
      left = MakeBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  ExprPtr ParseUnary() {
    if (AcceptSymbol("-")) {
      ExprPtr inner = ParseUnary();
      if (!ok()) return nullptr;
      return MakeUnary(UnaryOp::kNeg, std::move(inner));
    }
    return ParsePrimary();
  }

  static bool IsAggName(const std::string& name, AggFunc* out) {
    if (name == "count") {
      *out = AggFunc::kCount;
      return true;
    }
    if (name == "sum") {
      *out = AggFunc::kSum;
      return true;
    }
    if (name == "avg") {
      *out = AggFunc::kAvg;
      return true;
    }
    if (name == "min") {
      *out = AggFunc::kMin;
      return true;
    }
    if (name == "max") {
      *out = AggFunc::kMax;
      return true;
    }
    return false;
  }

  ExprPtr ParsePrimary() {
    const Token& t = Cur();
    switch (t.kind) {
      case TokenKind::kInt:
      case TokenKind::kReal:
      case TokenKind::kString: {
        ExprPtr e = MakeLiteral(LiteralTokenValue(t));
        e->token_ordinal = static_cast<int>(pos_);
        Advance();
        return e;
      }
      case TokenKind::kSymbol: {
        if (t.text == "(") {
          Advance();
          if (AtKeyword("select")) {
            auto sub = ParseSelect();
            if (!ok()) return nullptr;
            ExpectSymbol(")");
            return MakeSubquery(SubqueryKind::kScalar, std::move(sub));
          }
          ExprPtr first = ParseExpr();
          if (!ok()) return nullptr;
          if (AtSymbol(",")) {
            // Row expression — only legal before IN.
            std::vector<ExprPtr> items;
            items.push_back(std::move(first));
            while (AcceptSymbol(",")) {
              items.push_back(ParseExpr());
              if (!ok()) return nullptr;
            }
            ExpectSymbol(")");
            return MakeFuncCall("$row", std::move(items));
          }
          ExpectSymbol(")");
          return first;
        }
        Fail("unexpected symbol '" + t.text + "'");
        return nullptr;
      }
      case TokenKind::kIdent:
        return ParseIdentExpr();
      default:
        Fail("unexpected token");
        return nullptr;
    }
  }

  ExprPtr ParseIdentExpr() {
    std::string name = Cur().text;
    if (name == "exists") {
      Advance();
      ExpectSymbol("(");
      auto sub = ParseSelect();
      if (!ok()) return nullptr;
      ExpectSymbol(")");
      return MakeSubquery(SubqueryKind::kExists, std::move(sub));
    }
    if (name == "case") {
      Advance();
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kCase;
      while (AcceptKeyword("when")) {
        e->children.push_back(ParseExpr());
        if (!ok()) return nullptr;
        ExpectKeyword("then");
        e->children.push_back(ParseExpr());
        if (!ok()) return nullptr;
      }
      if (AcceptKeyword("else")) {
        e->children.push_back(ParseExpr());
        if (!ok()) return nullptr;
      }
      ExpectKeyword("end");
      return e;
    }
    if (name == "rownum") {
      Advance();
      return MakeRownum();
    }
    if (name == "null") {
      Advance();
      return MakeLiteral(Value::Null());
    }
    if (name == "true") {
      Advance();
      return MakeLiteral(Value::Boolean(true));
    }
    if (name == "false") {
      Advance();
      return MakeLiteral(Value::Boolean(false));
    }
    // Function call or column reference.
    if (Peek().kind == TokenKind::kSymbol && Peek().text == "(") {
      Advance();  // name
      Advance();  // (
      AggFunc agg = AggFunc::kCountStar;
      bool is_agg = IsAggName(name, &agg);
      bool distinct = false;
      std::vector<ExprPtr> args;
      if (is_agg && AtSymbol("*")) {
        Advance();
        agg = AggFunc::kCountStar;
      } else if (!AtSymbol(")")) {
        if (is_agg) distinct = AcceptKeyword("distinct");
        do {
          args.push_back(ParseExpr());
          if (!ok()) return nullptr;
        } while (AcceptSymbol(","));
      }
      ExpectSymbol(")");
      if (!ok()) return nullptr;
      // Window?
      if (AtKeyword("over")) {
        if (!is_agg) {
          Fail("only aggregate window functions are supported");
          return nullptr;
        }
        Advance();
        ExpectSymbol("(");
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kWindow;
        e->win_func = agg;
        e->children = std::move(args);
        if (AtKeyword("partition")) {
          Advance();
          ExpectKeyword("by");
          do {
            e->partition_by.push_back(ParseExpr());
            if (!ok()) return nullptr;
          } while (AcceptSymbol(","));
        }
        if (AtKeyword("order")) {
          Advance();
          ExpectKeyword("by");
          do {
            e->win_order_by.push_back(ParseExpr());
            if (!ok()) return nullptr;
          } while (AcceptSymbol(","));
        }
        // Accept and ignore the frame clause; semantics are fixed to RANGE
        // UNBOUNDED PRECEDING .. CURRENT ROW.
        if (AtKeyword("range") || AtKeyword("rows")) {
          while (ok() && !AtSymbol(")")) Advance();
        }
        ExpectSymbol(")");
        return e;
      }
      if (is_agg) {
        if (agg == AggFunc::kCountStar) return MakeCountStar();
        if (args.size() != 1) {
          Fail("aggregate takes exactly one argument");
          return nullptr;
        }
        return MakeAggregate(agg, std::move(args[0]), distinct);
      }
      // LNNVL is an operator internally (or-expansion emits it and the
      // evaluators only know UnaryOp::kLnnvl); map the call syntax so
      // unparsed or-expansion output reparses to the same tree.
      if (name == "lnnvl") {
        if (args.size() != 1) {
          Fail("LNNVL takes exactly one argument");
          return nullptr;
        }
        return MakeUnary(UnaryOp::kLnnvl, std::move(args[0]));
      }
      return MakeFuncCall(name, std::move(args));
    }
    // Column reference: [alias.]column
    Advance();
    if (AtSymbol(".")) {
      Advance();
      if (AtSymbol("*")) {
        Advance();
        return MakeColumnRef(name, "*");
      }
      std::string col = ExpectIdent();
      if (!ok()) return nullptr;
      return MakeColumnRef(name, col);
    }
    return MakeColumnRef("", name);
  }

  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
  Status error_;
  int depth_ = 0;
};

}  // namespace

Result<std::unique_ptr<QueryBlock>> ParseTokens(
    const std::vector<Token>& tokens) {
  if (tokens.empty() || tokens.back().kind != TokenKind::kEof) {
    return Status::ParseError("token stream does not end in EOF");
  }
  Parser parser(tokens);
  return parser.ParseStatement();
}

Result<std::unique_ptr<QueryBlock>> ParseSql(const std::string& sql) {
  auto tokens = Tokenize(sql);
  if (!tokens.ok()) return tokens.status();
  return ParseTokens(*tokens);
}

}  // namespace cbqt
