// Compilation of element-level expressions into fast closures. This is
// the C++ stand-in for the Scala code a macro would have emitted for the
// body of a generated loop: the planner compiles the scalar part of a
// comprehension head once, then tile kernels call it millions of times
// with no interpretation overhead beyond one indirect call per element.
//
// Three closure families:
//  * ScalarFn -- double(args)  for element values (a ScalarProgram)
//  * IntFn    -- int64(args)   for index arithmetic (true integer / and %)
//  * PredFn   -- bool(int args)  for index guards
//
// Compilation fails (PlanError) on constructs outside the supported
// fragment; callers fall back to slower but fully general strategies.
#ifndef SAC_EXEC_SCALAR_FN_H_
#define SAC_EXEC_SCALAR_FN_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/comp/ast.h"

namespace sac::exec {

using ScalarFn = std::function<double(const double* args)>;
using IntFn = std::function<int64_t(const int64_t* args)>;
using PredFn = std::function<bool(const int64_t* args)>;

/// Scalar constants visible to compiled expressions (scalar bindings such
/// as the learning rate).
using ConstEnv = std::unordered_map<std::string, double>;

/// Compiles a numeric expression over double-valued argument variables.
/// Supports literals, +,-,*,/,%, unary minus, if-then-else over numeric
/// comparisons, and the math builtins (abs, sqrt, exp, log, pow, min, max).
Result<ScalarFn> CompileScalarFn(const comp::ExprPtr& e,
                                 const std::vector<std::string>& args,
                                 const ConstEnv& consts);

/// Compiles an integer index expression (literals, vars, +,-,*,/,%,
/// min/max) over int64 argument variables. Integer constants may also come
/// from `consts` when their value is integral.
Result<IntFn> CompileIntFn(const comp::ExprPtr& e,
                           const std::vector<std::string>& args,
                           const ConstEnv& consts);

/// Compiles a boolean guard over integer argument variables: comparisons
/// of IntFn-compilable operands combined with &&, || and !.
Result<PredFn> CompileIntPred(const comp::ExprPtr& e,
                              const std::vector<std::string>& args,
                              const ConstEnv& consts);

}  // namespace sac::exec

#endif  // SAC_EXEC_SCALAR_FN_H_
