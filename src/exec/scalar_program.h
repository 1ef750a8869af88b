// Flat register/stack programs for element-level expressions: the one
// scalar evaluator behind CompileScalarFn. A closure tree would pay one
// indirect call (and one std::function dispatch) per AST node per
// element; for a chain like fig4c's `p - gamma*(g + lambda*p)` that is ~7
// indirections per element. A ScalarProgram is the expression compiled
// once into a flat postfix instruction vector evaluated by a single
// switch loop over an operand stack -- one indirect call per *element*,
// not per node, which is as close to the paper's "macro-generated Scala
// loop body" as a library-level C++ stand-in gets.
//
// Semantics match the reference evaluator (comp::Evaluator) except that
// if-then-else evaluates both branches and selects (kSelect). Both
// branches are pure arithmetic in the supported fragment, so the
// discarded branch has no observable effect and the selected value is
// bit-identical.
#ifndef SAC_EXEC_SCALAR_PROGRAM_H_
#define SAC_EXEC_SCALAR_PROGRAM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/comp/ast.h"

namespace sac::exec {

class ScalarProgram {
 public:
  enum class Op : uint8_t {
    kConst,  // push imm
    kArg,    // push args[slot]
    kAdd, kSub, kMul, kDiv, kMod,         // binary arithmetic
    kNeg, kAbs, kSqrt, kExp, kLog,        // unary
    kPow, kMin, kMax,                     // binary calls
    kEq, kNe, kLt, kLe, kGt, kGe,         // comparisons -> 0.0 / 1.0
    kAnd, kOr,                            // logical over 0/1 operands
    kNot,                                 // logical negation
    kSelect,  // pop f, t, c; push c != 0 ? t : f
  };

  struct Instr {
    Op op;
    int32_t slot = 0;   // kArg
    double imm = 0.0;   // kConst
  };

  /// Operand stacks up to this depth live in a fixed array on the
  /// machine stack; deeper programs get a heap stack of their exact
  /// depth per Eval.
  static constexpr int kInlineStack = 64;

  /// Compiles the fragment CompileScalarFn accepts (numeric expressions
  /// plus boolean subexpressions inside if-conditions), recording the
  /// deepest operand stack the program needs. PlanError on anything
  /// outside the fragment.
  static Result<ScalarProgram> Compile(
      const comp::ExprPtr& e, const std::vector<std::string>& args,
      const std::unordered_map<std::string, double>& consts);

  double Eval(const double* args) const;

  size_t size() const { return code_.size(); }
  const std::vector<Instr>& code() const { return code_; }
  /// Deepest operand stack Eval uses.
  int max_depth() const { return max_depth_; }

 private:
  /// Runs the program on `stack`, which holds at least max_depth_ slots.
  double Run(const double* args, double* stack) const;

  std::vector<Instr> code_;
  int max_depth_ = 0;
};

}  // namespace sac::exec

#endif  // SAC_EXEC_SCALAR_PROGRAM_H_
