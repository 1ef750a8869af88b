#include "src/exec/scalar_program.h"

#include <algorithm>
#include <cmath>

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

using Op = ScalarProgram::Op;
using Instr = ScalarProgram::Instr;

/// Emits postfix code for `e` into *code, tracking the deepest operand
/// stack the program reaches so Eval can size its stack.
class Emitter {
 public:
  Emitter(const std::vector<std::string>& args,
          const std::unordered_map<std::string, double>& consts)
      : args_(args), consts_(consts) {}

  Status EmitNumeric(const ExprPtr& e) {
    switch (e->kind) {
      case Expr::Kind::kIntLit:
        return Push(Op::kConst, 0, static_cast<double>(e->int_val));
      case Expr::Kind::kDoubleLit:
        return Push(Op::kConst, 0, e->double_val);
      case Expr::Kind::kVar: {
        const int slot = FindArg(args_, e->str_val);
        if (slot >= 0) return Push(Op::kArg, slot, 0.0);
        auto it = consts_.find(e->str_val);
        if (it != consts_.end()) return Push(Op::kConst, 0, it->second);
        return Unsupported(e, "unbound scalar variable");
      }
      case Expr::Kind::kUnary: {
        if (e->un_op != UnOp::kNeg) {
          return Unsupported(e, "boolean negation");
        }
        SAC_RETURN_NOT_OK(EmitNumeric(e->children[0]));
        return Apply(Op::kNeg, 1);
      }
      case Expr::Kind::kBinary: {
        Op op;
        switch (e->bin_op) {
          case BinOp::kAdd: op = Op::kAdd; break;
          case BinOp::kSub: op = Op::kSub; break;
          case BinOp::kMul: op = Op::kMul; break;
          case BinOp::kDiv: op = Op::kDiv; break;
          case BinOp::kMod: op = Op::kMod; break;
          default:
            return Unsupported(e, "comparison outside if-condition");
        }
        SAC_RETURN_NOT_OK(EmitNumeric(e->children[0]));
        SAC_RETURN_NOT_OK(EmitNumeric(e->children[1]));
        return Apply(op, 2);
      }
      case Expr::Kind::kIf: {
        SAC_RETURN_NOT_OK(EmitBool(e->children[0]));
        SAC_RETURN_NOT_OK(EmitNumeric(e->children[1]));
        SAC_RETURN_NOT_OK(EmitNumeric(e->children[2]));
        return Apply(Op::kSelect, 3);
      }
      case Expr::Kind::kCall: {
        const std::string& fn = e->str_val;
        struct Builtin { const char* name; size_t arity; Op op; };
        static constexpr Builtin kBuiltins[] = {
            {"abs", 1, Op::kAbs},  {"sqrt", 1, Op::kSqrt},
            {"exp", 1, Op::kExp},  {"log", 1, Op::kLog},
            {"pow", 2, Op::kPow},  {"min", 2, Op::kMin},
            {"max", 2, Op::kMax},
        };
        if (fn == "toDouble" && e->children.size() == 1) {
          return EmitNumeric(e->children[0]);
        }
        for (const Builtin& b : kBuiltins) {
          if (fn == b.name && e->children.size() == b.arity) {
            for (const auto& c : e->children) {
              SAC_RETURN_NOT_OK(EmitNumeric(c));
            }
            return Apply(b.op, static_cast<int>(b.arity));
          }
        }
        return Unsupported(e, "function call");
      }
      default:
        return Unsupported(e, "expression");
    }
  }

  /// Boolean fragment of if-conditions, as 0.0/1.0 on the stack.
  Status EmitBool(const ExprPtr& e) {
    if (e->kind == Expr::Kind::kBoolLit) {
      return Push(Op::kConst, 0, e->bool_val ? 1.0 : 0.0);
    }
    if (e->kind == Expr::Kind::kUnary && e->un_op == UnOp::kNot) {
      SAC_RETURN_NOT_OK(EmitBool(e->children[0]));
      return Apply(Op::kNot, 1);
    }
    if (e->kind != Expr::Kind::kBinary) {
      return Unsupported(e, "if-condition");
    }
    if (e->bin_op == BinOp::kAnd || e->bin_op == BinOp::kOr) {
      SAC_RETURN_NOT_OK(EmitBool(e->children[0]));
      SAC_RETURN_NOT_OK(EmitBool(e->children[1]));
      return Apply(e->bin_op == BinOp::kAnd ? Op::kAnd : Op::kOr, 2);
    }
    Op op;
    switch (e->bin_op) {
      case BinOp::kEq: op = Op::kEq; break;
      case BinOp::kNe: op = Op::kNe; break;
      case BinOp::kLt: op = Op::kLt; break;
      case BinOp::kLe: op = Op::kLe; break;
      case BinOp::kGt: op = Op::kGt; break;
      case BinOp::kGe: op = Op::kGe; break;
      default:
        return Unsupported(e, "if-condition");
    }
    SAC_RETURN_NOT_OK(EmitNumeric(e->children[0]));
    SAC_RETURN_NOT_OK(EmitNumeric(e->children[1]));
    return Apply(op, 2);
  }

  std::vector<Instr> Take() { return std::move(code_); }
  int max_depth() const { return max_depth_; }

 private:
  Status Push(Op op, int32_t slot, double imm) {
    code_.push_back(Instr{op, slot, imm});
    max_depth_ = std::max(max_depth_, ++depth_);
    return Status::OK();
  }

  Status Apply(Op op, int arity) {
    code_.push_back(Instr{op, 0, 0.0});
    depth_ -= arity - 1;
    return Status::OK();
  }

  const std::vector<std::string>& args_;
  const std::unordered_map<std::string, double>& consts_;
  std::vector<Instr> code_;
  int depth_ = 0;
  int max_depth_ = 0;
};

}  // namespace

Result<ScalarProgram> ScalarProgram::Compile(
    const ExprPtr& e, const std::vector<std::string>& args,
    const std::unordered_map<std::string, double>& consts) {
  Emitter em(args, consts);
  SAC_RETURN_NOT_OK(em.EmitNumeric(e));
  ScalarProgram p;
  p.code_ = em.Take();
  p.max_depth_ = em.max_depth();
  return p;
}

double ScalarProgram::Eval(const double* args) const {
  if (max_depth_ <= kInlineStack) {
    double stack[kInlineStack];
    return Run(args, stack);
  }
  std::vector<double> stack(max_depth_);
  return Run(args, stack.data());
}

double ScalarProgram::Run(const double* args, double* stack) const {
  int sp = 0;
  for (const Instr& in : code_) {
    switch (in.op) {
      case Op::kConst: stack[sp++] = in.imm; break;
      case Op::kArg: stack[sp++] = args[in.slot]; break;
      case Op::kAdd: --sp; stack[sp - 1] += stack[sp]; break;
      case Op::kSub: --sp; stack[sp - 1] -= stack[sp]; break;
      case Op::kMul: --sp; stack[sp - 1] *= stack[sp]; break;
      case Op::kDiv: --sp; stack[sp - 1] /= stack[sp]; break;
      case Op::kMod:
        --sp;
        stack[sp - 1] = std::fmod(stack[sp - 1], stack[sp]);
        break;
      case Op::kNeg: stack[sp - 1] = -stack[sp - 1]; break;
      case Op::kAbs: stack[sp - 1] = std::fabs(stack[sp - 1]); break;
      case Op::kSqrt: stack[sp - 1] = std::sqrt(stack[sp - 1]); break;
      case Op::kExp: stack[sp - 1] = std::exp(stack[sp - 1]); break;
      case Op::kLog: stack[sp - 1] = std::log(stack[sp - 1]); break;
      case Op::kPow:
        --sp;
        stack[sp - 1] = std::pow(stack[sp - 1], stack[sp]);
        break;
      case Op::kMin:
        --sp;
        stack[sp - 1] = std::min(stack[sp - 1], stack[sp]);
        break;
      case Op::kMax:
        --sp;
        stack[sp - 1] = std::max(stack[sp - 1], stack[sp]);
        break;
      case Op::kEq:
        --sp;
        stack[sp - 1] = stack[sp - 1] == stack[sp] ? 1.0 : 0.0;
        break;
      case Op::kNe:
        --sp;
        stack[sp - 1] = stack[sp - 1] != stack[sp] ? 1.0 : 0.0;
        break;
      case Op::kLt:
        --sp;
        stack[sp - 1] = stack[sp - 1] < stack[sp] ? 1.0 : 0.0;
        break;
      case Op::kLe:
        --sp;
        stack[sp - 1] = stack[sp - 1] <= stack[sp] ? 1.0 : 0.0;
        break;
      case Op::kGt:
        --sp;
        stack[sp - 1] = stack[sp - 1] > stack[sp] ? 1.0 : 0.0;
        break;
      case Op::kGe:
        --sp;
        stack[sp - 1] = stack[sp - 1] >= stack[sp] ? 1.0 : 0.0;
        break;
      case Op::kAnd:
        --sp;
        stack[sp - 1] =
            (stack[sp - 1] != 0.0 && stack[sp] != 0.0) ? 1.0 : 0.0;
        break;
      case Op::kOr:
        --sp;
        stack[sp - 1] =
            (stack[sp - 1] != 0.0 || stack[sp] != 0.0) ? 1.0 : 0.0;
        break;
      case Op::kNot:
        stack[sp - 1] = stack[sp - 1] == 0.0 ? 1.0 : 0.0;
        break;
      case Op::kSelect:
        sp -= 2;
        stack[sp - 1] =
            stack[sp - 1] != 0.0 ? stack[sp] : stack[sp + 1];
        break;
    }
  }
  return stack[0];
}

}  // namespace sac::exec
