#include "src/comp/ast.h"

#include <algorithm>
#include <charconv>
#include <set>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "src/common/logging.h"

namespace sac::comp {

// ---------------------------------------------------------------------------
// Pattern
// ---------------------------------------------------------------------------

PatternPtr Pattern::Var(std::string name, Pos pos) {
  auto p = std::make_shared<Pattern>();
  p->kind = Kind::kVar;
  p->var = std::move(name);
  p->pos = pos;
  p->span = Span{pos, pos};
  return p;
}

PatternPtr Pattern::Wildcard(Pos pos) {
  auto p = std::make_shared<Pattern>();
  p->kind = Kind::kWildcard;
  p->pos = pos;
  p->span = Span{pos, pos};
  return p;
}

PatternPtr Pattern::Tuple(std::vector<PatternPtr> elems, Pos pos) {
  auto p = std::make_shared<Pattern>();
  p->kind = Kind::kTuple;
  p->elems = std::move(elems);
  p->pos = pos;
  p->span = Span{pos, pos};
  return p;
}

void Pattern::CollectVars(std::vector<std::string>* out) const {
  switch (kind) {
    case Kind::kVar:
      out->push_back(var);
      break;
    case Kind::kWildcard:
      break;
    case Kind::kTuple:
      for (const auto& e : elems) e->CollectVars(out);
      break;
  }
}

std::vector<std::string> Pattern::Vars() const {
  std::vector<std::string> out;
  CollectVars(&out);
  return out;
}

bool Pattern::BindsVar(const std::string& name) const {
  switch (kind) {
    case Kind::kVar:
      return var == name;
    case Kind::kWildcard:
      return false;
    case Kind::kTuple:
      return std::any_of(elems.begin(), elems.end(),
                         [&](const PatternPtr& e) { return e->BindsVar(name); });
  }
  return false;
}

std::string Pattern::ToString() const {
  switch (kind) {
    case Kind::kVar:
      return var;
    case Kind::kWildcard:
      return "_";
    case Kind::kTuple: {
      std::string s = "(";
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i) s += ",";
        s += elems[i]->ToString();
      }
      return s + ")";
    }
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Expr factories
// ---------------------------------------------------------------------------

namespace {
std::shared_ptr<Expr> New(Expr::Kind k, Pos pos) {
  auto e = std::make_shared<Expr>();
  e->kind = k;
  e->pos = pos;
  e->span = Span{pos, pos};
  return e;
}
}  // namespace

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "&&";
    case BinOp::kOr: return "||";
  }
  return "?";
}

const char* ReduceOpName(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return "+";
    case ReduceOp::kProd: return "*";
    case ReduceOp::kMin: return "min";
    case ReduceOp::kMax: return "max";
    case ReduceOp::kAnd: return "&&";
    case ReduceOp::kOr: return "||";
    case ReduceOp::kConcat: return "++";
    case ReduceOp::kCount: return "count";
    case ReduceOp::kAvg: return "avg";
  }
  return "?";
}

ExprPtr Expr::Int(int64_t v, Pos pos) {
  auto e = New(Kind::kIntLit, pos);
  e->int_val = v;
  return e;
}
ExprPtr Expr::Double(double v, Pos pos) {
  auto e = New(Kind::kDoubleLit, pos);
  e->double_val = v;
  return e;
}
ExprPtr Expr::Bool(bool v, Pos pos) {
  auto e = New(Kind::kBoolLit, pos);
  e->bool_val = v;
  return e;
}
ExprPtr Expr::Str(std::string v, Pos pos) {
  auto e = New(Kind::kStringLit, pos);
  e->str_val = std::move(v);
  return e;
}
ExprPtr Expr::Var(std::string name, Pos pos) {
  auto e = New(Kind::kVar, pos);
  e->str_val = std::move(name);
  return e;
}
ExprPtr Expr::Tuple(std::vector<ExprPtr> elems, Pos pos) {
  auto e = New(Kind::kTuple, pos);
  e->children = std::move(elems);
  return e;
}
ExprPtr Expr::Binary(BinOp op, ExprPtr l, ExprPtr r, Pos pos) {
  auto e = New(Kind::kBinary, pos);
  e->bin_op = op;
  e->children = {std::move(l), std::move(r)};
  return e;
}
ExprPtr Expr::Unary(UnOp op, ExprPtr operand, Pos pos) {
  auto e = New(Kind::kUnary, pos);
  e->un_op = op;
  e->children = {std::move(operand)};
  return e;
}
ExprPtr Expr::Call(std::string fn, std::vector<ExprPtr> args, Pos pos) {
  auto e = New(Kind::kCall, pos);
  e->str_val = std::move(fn);
  e->children = std::move(args);
  return e;
}
ExprPtr Expr::Index(ExprPtr array, std::vector<ExprPtr> indices, Pos pos) {
  auto e = New(Kind::kIndex, pos);
  e->children.push_back(std::move(array));
  for (auto& i : indices) e->children.push_back(std::move(i));
  return e;
}
ExprPtr Expr::Reduce(ReduceOp op, ExprPtr operand, Pos pos) {
  auto e = New(Kind::kReduce, pos);
  e->reduce_op = op;
  e->children = {std::move(operand)};
  return e;
}
ExprPtr Expr::Comprehension(ExprPtr head, std::vector<Qualifier> quals,
                            Pos pos) {
  auto e = New(Kind::kComprehension, pos);
  e->children = {std::move(head)};
  e->quals = std::move(quals);
  return e;
}
ExprPtr Expr::Build(std::string builder, ExprPtr comp,
                    std::vector<ExprPtr> args, Pos pos) {
  auto e = New(Kind::kBuild, pos);
  e->str_val = std::move(builder);
  e->children.push_back(std::move(comp));
  for (auto& a : args) e->children.push_back(std::move(a));
  return e;
}
ExprPtr Expr::If(ExprPtr cond, ExprPtr then_e, ExprPtr else_e, Pos pos) {
  auto e = New(Kind::kIf, pos);
  e->children = {std::move(cond), std::move(then_e), std::move(else_e)};
  return e;
}

// ---------------------------------------------------------------------------
// Qualifier
// ---------------------------------------------------------------------------

Qualifier Qualifier::Generator(PatternPtr p, ExprPtr e, Pos pos) {
  return Qualifier{Kind::kGenerator, std::move(p), std::move(e), pos,
                   Span{pos, pos}};
}
Qualifier Qualifier::Let(PatternPtr p, ExprPtr e, Pos pos) {
  return Qualifier{Kind::kLet, std::move(p), std::move(e), pos,
                   Span{pos, pos}};
}
Qualifier Qualifier::Guard(ExprPtr e, Pos pos) {
  return Qualifier{Kind::kGuard, nullptr, std::move(e), pos, Span{pos, pos}};
}
Qualifier Qualifier::GroupBy(PatternPtr p, ExprPtr e, Pos pos) {
  return Qualifier{Kind::kGroupBy, std::move(p), std::move(e), pos,
                   Span{pos, pos}};
}

std::string Qualifier::ToString() const {
  switch (kind) {
    case Kind::kGenerator:
      return pattern->ToString() + " <- " + expr->ToString();
    case Kind::kLet:
      return "let " + pattern->ToString() + " = " + expr->ToString();
    case Kind::kGuard:
      return expr->ToString();
    case Kind::kGroupBy:
      if (expr) {
        return "group by " + pattern->ToString() + " : " + expr->ToString();
      }
      return "group by " + pattern->ToString();
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Printing and equality
// ---------------------------------------------------------------------------

std::string Expr::ToString() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kIntLit:
      os << int_val;
      break;
    case Kind::kDoubleLit: {
      // Shortest round-trip form: the text identifies the value exactly,
      // so printed queries are sound plan-cache keys.
      char buf[32];
      const auto r = std::to_chars(buf, buf + sizeof(buf), double_val);
      os << std::string_view(buf, r.ptr - buf);
      if (double_val == static_cast<int64_t>(double_val)) os << ".0";
      break;
    }
    case Kind::kBoolLit:
      os << (bool_val ? "true" : "false");
      break;
    case Kind::kStringLit:
      os << '"' << str_val << '"';
      break;
    case Kind::kVar:
      os << str_val;
      break;
    case Kind::kTuple:
      os << "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i) os << ",";
        os << children[i]->ToString();
      }
      os << ")";
      break;
    case Kind::kBinary:
      os << "(" << children[0]->ToString() << " " << BinOpName(bin_op) << " "
         << children[1]->ToString() << ")";
      break;
    case Kind::kUnary:
      os << (un_op == UnOp::kNeg ? "-" : "!") << children[0]->ToString();
      break;
    case Kind::kCall:
      os << str_val << "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i) os << ",";
        os << children[i]->ToString();
      }
      os << ")";
      break;
    case Kind::kIndex:
      os << children[0]->ToString() << "[";
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) os << ",";
        os << children[i]->ToString();
      }
      os << "]";
      break;
    case Kind::kReduce:
      os << ReduceOpName(reduce_op) << "/" << children[0]->ToString();
      break;
    case Kind::kComprehension: {
      os << "[ " << children[0]->ToString() << " | ";
      for (size_t i = 0; i < quals.size(); ++i) {
        if (i) os << ", ";
        os << quals[i].ToString();
      }
      os << " ]";
      break;
    }
    case Kind::kBuild: {
      os << str_val;
      if (children.size() > 1) {
        os << "(";
        for (size_t i = 1; i < children.size(); ++i) {
          if (i > 1) os << ",";
          os << children[i]->ToString();
        }
        os << ")";
      }
      os << children[0]->ToString();
      break;
    }
    case Kind::kIf:
      os << "if (" << children[0]->ToString() << ") "
         << children[1]->ToString() << " else " << children[2]->ToString();
      break;
  }
  return os.str();
}

bool Qualifier::Equals(const Qualifier& other) const {
  if (kind != other.kind) return false;
  if ((pattern == nullptr) != (other.pattern == nullptr)) return false;
  if (pattern && pattern->ToString() != other.pattern->ToString()) return false;
  if ((expr == nullptr) != (other.expr == nullptr)) return false;
  if (expr && !expr->Equals(*other.expr)) return false;
  return true;
}

bool Expr::Equals(const Expr& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case Kind::kIntLit:
      if (int_val != other.int_val) return false;
      break;
    case Kind::kDoubleLit:
      if (double_val != other.double_val) return false;
      break;
    case Kind::kBoolLit:
      if (bool_val != other.bool_val) return false;
      break;
    case Kind::kStringLit:
    case Kind::kVar:
    case Kind::kCall:
    case Kind::kBuild:
      if (str_val != other.str_val) return false;
      break;
    case Kind::kBinary:
      if (bin_op != other.bin_op) return false;
      break;
    case Kind::kUnary:
      if (un_op != other.un_op) return false;
      break;
    case Kind::kReduce:
      if (reduce_op != other.reduce_op) return false;
      break;
    default:
      break;
  }
  if (children.size() != other.children.size()) return false;
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->Equals(*other.children[i])) return false;
  }
  if (quals.size() != other.quals.size()) return false;
  for (size_t i = 0; i < quals.size(); ++i) {
    if (!quals[i].Equals(other.quals[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Free variables
// ---------------------------------------------------------------------------

namespace {

void CollectFree(const ExprPtr& e, std::set<std::string>* bound,
                 std::vector<std::string>* out) {
  switch (e->kind) {
    case Expr::Kind::kVar:
      if (!bound->count(e->str_val)) out->push_back(e->str_val);
      return;
    case Expr::Kind::kComprehension: {
      // Qualifiers bind scoped variables left-to-right.
      std::set<std::string> local = *bound;
      for (const Qualifier& q : e->quals) {
        switch (q.kind) {
          case Qualifier::Kind::kGenerator:
          case Qualifier::Kind::kLet:
            CollectFree(q.expr, &local, out);
            for (const auto& v : q.pattern->Vars()) local.insert(v);
            break;
          case Qualifier::Kind::kGuard:
            CollectFree(q.expr, &local, out);
            break;
          case Qualifier::Kind::kGroupBy:
            if (q.expr) CollectFree(q.expr, &local, out);
            for (const auto& v : q.pattern->Vars()) local.insert(v);
            break;
        }
      }
      CollectFree(e->children[0], &local, out);
      return;
    }
    case Expr::Kind::kBuild: {
      for (size_t i = 1; i < e->children.size(); ++i) {
        CollectFree(e->children[i], bound, out);
      }
      CollectFree(e->children[0], bound, out);
      return;
    }
    default:
      for (const auto& c : e->children) CollectFree(c, bound, out);
      return;
  }
}

}  // namespace

std::vector<std::string> FreeVars(const ExprPtr& e) {
  std::set<std::string> bound;
  std::vector<std::string> raw;
  CollectFree(e, &bound, &raw);
  // Dedup, keep first-occurrence order.
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (auto& v : raw) {
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

bool UsesVar(const ExprPtr& e, const std::string& name) {
  auto fv = FreeVars(e);
  return std::find(fv.begin(), fv.end(), name) != fv.end();
}

// ---------------------------------------------------------------------------
// Substitution
// ---------------------------------------------------------------------------

ExprPtr SubstituteVar(const ExprPtr& e, const std::string& name,
                      const ExprPtr& replacement) {
  switch (e->kind) {
    case Expr::Kind::kVar:
      return e->str_val == name ? replacement : e;
    case Expr::Kind::kComprehension: {
      bool shadowed = false;
      std::vector<Qualifier> quals;
      quals.reserve(e->quals.size());
      for (const Qualifier& q : e->quals) {
        Qualifier nq = q;
        if (!shadowed && q.expr) {
          nq.expr = SubstituteVar(q.expr, name, replacement);
        }
        quals.push_back(std::move(nq));
        if (q.pattern && q.pattern->BindsVar(name)) shadowed = true;
      }
      ExprPtr head = shadowed
                         ? e->children[0]
                         : SubstituteVar(e->children[0], name, replacement);
      return Expr::Comprehension(head, std::move(quals), e->pos);
    }
    default: {
      if (e->children.empty()) return e;
      auto copy = std::make_shared<Expr>(*e);
      for (auto& c : copy->children) {
        c = SubstituteVar(c, name, replacement);
      }
      return copy;
    }
  }
}

// ---------------------------------------------------------------------------
// Alpha renaming
// ---------------------------------------------------------------------------

namespace {

PatternPtr RenamePattern(const PatternPtr& p,
                         std::unordered_map<std::string, std::string>* map,
                         int* counter) {
  switch (p->kind) {
    case Pattern::Kind::kWildcard:
      return p;
    case Pattern::Kind::kVar: {
      std::string fresh = p->var + "$" + std::to_string((*counter)++);
      (*map)[p->var] = fresh;
      return Pattern::Var(fresh, p->pos);
    }
    case Pattern::Kind::kTuple: {
      std::vector<PatternPtr> elems;
      elems.reserve(p->elems.size());
      for (const auto& e : p->elems) {
        elems.push_back(RenamePattern(e, map, counter));
      }
      return Pattern::Tuple(std::move(elems), p->pos);
    }
  }
  return p;
}

ExprPtr Rename(const ExprPtr& e,
               const std::unordered_map<std::string, std::string>& map,
               int* counter) {
  switch (e->kind) {
    case Expr::Kind::kVar: {
      auto it = map.find(e->str_val);
      return it == map.end() ? e : Expr::Var(it->second, e->pos);
    }
    case Expr::Kind::kComprehension: {
      std::unordered_map<std::string, std::string> local = map;
      std::vector<Qualifier> quals;
      quals.reserve(e->quals.size());
      for (const Qualifier& q : e->quals) {
        Qualifier nq = q;
        if (q.expr) nq.expr = Rename(q.expr, local, counter);
        if (q.pattern && q.kind != Qualifier::Kind::kGroupBy) {
          nq.pattern = RenamePattern(q.pattern, &local, counter);
        } else if (q.pattern) {
          // Group-by patterns re-bind existing names; rename consistently.
          nq.pattern = RenamePattern(q.pattern, &local, counter);
        }
        quals.push_back(std::move(nq));
      }
      return Expr::Comprehension(Rename(e->children[0], local, counter),
                                 std::move(quals), e->pos);
    }
    default: {
      if (e->children.empty()) return e;
      auto copy = std::make_shared<Expr>(*e);
      for (auto& c : copy->children) c = Rename(c, map, counter);
      return copy;
    }
  }
}

}  // namespace

ExprPtr FreshenBoundVars(const ExprPtr& e, int* counter) {
  return Rename(e, {}, counter);
}

}  // namespace sac::comp
