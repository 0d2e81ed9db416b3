#pragma once
// The protected scalar kernels of the Expr semantics contract (expr.hpp),
// shared by every evaluator that must agree with Expr::eval bit for bit:
// the ExprProgram constant folder, its batch strip interpreter and its
// single-point evaluator.
// Expr::eval itself inlines the same operations; any change here must be
// mirrored there (and will be caught by tests/model/test_expr_program.cpp).

#include <cmath>

namespace ftbesst::model::detail {

inline double op_add(double a, double b) { return a + b; }
inline double op_sub(double a, double b) { return a - b; }
inline double op_mul(double a, double b) { return a * b; }
/// Protected divide: a denominator within 1e-9 of zero returns the
/// numerator unchanged (NaN denominators are NOT protected — the compare
/// is false, so NaN propagates through the divide like Expr::eval).
inline double op_div(double num, double den) {
  return std::abs(den) < 1e-9 ? num : num / den;
}
inline double op_log(double x) { return std::log(std::abs(x) + 1.0); }
inline double op_sqrt(double x) { return std::sqrt(std::abs(x)); }

}  // namespace ftbesst::model::detail
