#include "src/exec/scalar_fn.h"

#include <algorithm>
#include <memory>

#include "src/exec/scalar_program.h"

namespace sac::exec {

using comp::BinOp;
using comp::Expr;
using comp::ExprPtr;
using comp::UnOp;

namespace {

Status Unsupported(const ExprPtr& e, const char* what) {
  return Status::PlanError(std::string("cannot compile ") + what + ": " +
                           e->ToString());
}

int FindArg(const std::vector<std::string>& args, const std::string& name) {
  auto it = std::find(args.begin(), args.end(), name);
  return it == args.end() ? -1 : static_cast<int>(it - args.begin());
}

}  // namespace

Result<ScalarFn> CompileScalarFn(const ExprPtr& e,
                                 const std::vector<std::string>& args,
                                 const ConstEnv& consts) {
  // A flat postfix program costs one indirect call per element instead
  // of one per AST node (src/exec/scalar_program.h).
  SAC_ASSIGN_OR_RETURN(ScalarProgram prog,
                       ScalarProgram::Compile(e, args, consts));
  auto p = std::make_shared<ScalarProgram>(std::move(prog));
  return ScalarFn([p](const double* a) { return p->Eval(a); });
}

Result<IntFn> CompileIntFn(const ExprPtr& e,
                           const std::vector<std::string>& args,
                           const ConstEnv& consts) {
  switch (e->kind) {
    case Expr::Kind::kIntLit: {
      const int64_t v = e->int_val;
      return IntFn([v](const int64_t*) { return v; });
    }
    case Expr::Kind::kVar: {
      const int slot = FindArg(args, e->str_val);
      if (slot >= 0) {
        return IntFn([slot](const int64_t* a) { return a[slot]; });
      }
      auto it = consts.find(e->str_val);
      if (it != consts.end() &&
          it->second == static_cast<int64_t>(it->second)) {
        const int64_t v = static_cast<int64_t>(it->second);
        return IntFn([v](const int64_t*) { return v; });
      }
      return Unsupported(e, "unbound index variable");
    }
    case Expr::Kind::kUnary: {
      if (e->un_op != UnOp::kNeg) return Unsupported(e, "index negation");
      SAC_ASSIGN_OR_RETURN(IntFn f,
                           CompileIntFn(e->children[0], args, consts));
      return IntFn([f](const int64_t* a) { return -f(a); });
    }
    case Expr::Kind::kBinary: {
      SAC_ASSIGN_OR_RETURN(IntFn l,
                           CompileIntFn(e->children[0], args, consts));
      SAC_ASSIGN_OR_RETURN(IntFn r,
                           CompileIntFn(e->children[1], args, consts));
      switch (e->bin_op) {
        case BinOp::kAdd:
          return IntFn([l, r](const int64_t* a) { return l(a) + r(a); });
        case BinOp::kSub:
          return IntFn([l, r](const int64_t* a) { return l(a) - r(a); });
        case BinOp::kMul:
          return IntFn([l, r](const int64_t* a) { return l(a) * r(a); });
        case BinOp::kDiv:
          return IntFn([l, r](const int64_t* a) {
            const int64_t d = r(a);
            return d == 0 ? 0 : l(a) / d;
          });
        case BinOp::kMod:
          return IntFn([l, r](const int64_t* a) {
            const int64_t d = r(a);
            return d == 0 ? 0 : l(a) % d;
          });
        default:
          return Unsupported(e, "index operator");
      }
    }
    case Expr::Kind::kCall: {
      if ((e->str_val == "min" || e->str_val == "max") &&
          e->children.size() == 2) {
        SAC_ASSIGN_OR_RETURN(IntFn l,
                             CompileIntFn(e->children[0], args, consts));
        SAC_ASSIGN_OR_RETURN(IntFn r,
                             CompileIntFn(e->children[1], args, consts));
        const bool is_min = e->str_val == "min";
        return IntFn([l, r, is_min](const int64_t* a) {
          return is_min ? std::min(l(a), r(a)) : std::max(l(a), r(a));
        });
      }
      return Unsupported(e, "index function");
    }
    default:
      return Unsupported(e, "index expression");
  }
}

Result<PredFn> CompileIntPred(const ExprPtr& e,
                              const std::vector<std::string>& args,
                              const ConstEnv& consts) {
  switch (e->kind) {
    case Expr::Kind::kBoolLit: {
      const bool v = e->bool_val;
      return PredFn([v](const int64_t*) { return v; });
    }
    case Expr::Kind::kUnary: {
      if (e->un_op != UnOp::kNot) return Unsupported(e, "guard negation");
      SAC_ASSIGN_OR_RETURN(PredFn f,
                           CompileIntPred(e->children[0], args, consts));
      return PredFn([f](const int64_t* a) { return !f(a); });
    }
    case Expr::Kind::kBinary: {
      if (e->bin_op == BinOp::kAnd || e->bin_op == BinOp::kOr) {
        SAC_ASSIGN_OR_RETURN(PredFn l,
                             CompileIntPred(e->children[0], args, consts));
        SAC_ASSIGN_OR_RETURN(PredFn r,
                             CompileIntPred(e->children[1], args, consts));
        const bool is_and = e->bin_op == BinOp::kAnd;
        return PredFn([l, r, is_and](const int64_t* a) {
          return is_and ? (l(a) && r(a)) : (l(a) || r(a));
        });
      }
      SAC_ASSIGN_OR_RETURN(IntFn l, CompileIntFn(e->children[0], args, consts));
      SAC_ASSIGN_OR_RETURN(IntFn r, CompileIntFn(e->children[1], args, consts));
      const BinOp op = e->bin_op;
      return PredFn([l, r, op](const int64_t* a) {
        const int64_t x = l(a), y = r(a);
        switch (op) {
          case BinOp::kEq: return x == y;
          case BinOp::kNe: return x != y;
          case BinOp::kLt: return x < y;
          case BinOp::kLe: return x <= y;
          case BinOp::kGt: return x > y;
          case BinOp::kGe: return x >= y;
          default: return false;
        }
      });
    }
    default:
      return Unsupported(e, "guard");
  }
}

}  // namespace sac::exec
