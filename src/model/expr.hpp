#pragma once
// Expressions for symbolic regression, in two forms.
//
// Operators are "protected" in the usual GP sense (division by ~0 returns
// the numerator, log/sqrt take magnitudes) so that every tree is total over
// the whole parameter space and evolution never has to reason about domain
// errors. `Genome` is the flat preorder array the regressor evolves; `Expr`
// is the pointer tree kept at the boundary (ExprModel, simplified(), str(),
// the S-expression text of saved models).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ftbesst::model {

enum class Op : std::uint8_t {
  kConst,
  kVar,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kLog,
  kSqrt
};

[[nodiscard]] constexpr bool is_binary(Op op) noexcept {
  return op == Op::kAdd || op == Op::kSub || op == Op::kMul || op == Op::kDiv;
}
[[nodiscard]] constexpr bool is_unary(Op op) noexcept {
  return op == Op::kLog || op == Op::kSqrt;
}

struct ExprNode {
  Op op = Op::kConst;
  double value = 0.0;    // kConst
  std::size_t var = 0;   // kVar
  std::unique_ptr<ExprNode> lhs;
  std::unique_ptr<ExprNode> rhs;
};

class Expr {
 public:
  Expr() = default;  // empty; eval() of an empty Expr returns 0

  [[nodiscard]] static Expr constant(double v);
  [[nodiscard]] static Expr variable(std::size_t index);
  [[nodiscard]] static Expr binary(Op op, Expr lhs, Expr rhs);
  [[nodiscard]] static Expr unary(Op op, Expr operand);

  /// Grow-method random tree over `num_vars` variables (Genome::random,
  /// as a tree).
  [[nodiscard]] static Expr random(util::Rng& rng, std::size_t num_vars,
                                   int max_depth);

  // -- Evaluation semantics contract ---------------------------------------
  // Every evaluator of an expression (eval() here, the compiled
  // ExprProgram, and the constant folder in simplified()) implements the
  // SAME total function, bit for bit:
  //   * kDiv:  num / den, except |den| < 1e-9 returns num unchanged — there
  //            is no division by (near-)zero, hence no Inf/NaN from /0.
  //   * kLog:  log(|x| + 1), total over the reals.
  //   * kSqrt: sqrt(|x|), total over the reals.
  //   * kVar with an index >= vars.size() reads 0.0.
  //   * Intermediate overflow may still produce Inf (e.g. huge products),
  //     and Inf - Inf may produce NaN; these propagate through the
  //     remaining operations by ordinary IEEE-754 rules, and only the FINAL
  //     result is clamped: a non-finite root value evaluates to 0.0.
  // Operations are never reassociated or contracted, so any two evaluators
  // agree on every input. This is what lets SymReg memoize and batch-compile
  // fitness while keeping tree-walk eval() as the reference oracle.
  [[nodiscard]] double eval(std::span<const double> vars) const;
  /// Read-only view of the tree root (flattened by Genome, read by
  /// structural inspections). Null for an empty expression.
  [[nodiscard]] const ExprNode* root() const noexcept { return root_.get(); }
  [[nodiscard]] std::size_t size() const noexcept;  ///< node count
  [[nodiscard]] int depth() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return root_ == nullptr; }
  [[nodiscard]] Expr clone() const;
  /// Render with the given variable names (falls back to x0,x1,...).
  [[nodiscard]] std::string str(
      std::span<const std::string> names = {}) const;

  /// Round-trippable S-expression form, e.g. "(mul (var 0) (const 3.5))".
  [[nodiscard]] std::string to_sexpr() const;
  /// Parse the S-expression form; throws std::invalid_argument on syntax
  /// errors or trailing input.
  [[nodiscard]] static Expr from_sexpr(const std::string& text);

  /// Algebraic simplification: constant folding and identity elimination
  /// (x+0, x*1, x*0, x-x, x/1, log/sqrt of constants, ...). Semantics are
  /// preserved exactly for every input (the protected-operator behaviour of
  /// eval() is respected — e.g. x/0 folds to x only when the denominator is
  /// a literal constant below the protection threshold). Returns a new
  /// expression; repeated application is idempotent.
  [[nodiscard]] Expr simplified() const;

 private:
  explicit Expr(std::unique_ptr<ExprNode> root) : root_(std::move(root)) {}

  std::unique_ptr<ExprNode> root_;
};

/// One node of a Genome. `var` is read only by kVar and `value` only by
/// kConst; the other fields are ignored (as in ExprNode).
struct Gene {
  Op op = Op::kConst;
  std::uint32_t var = 0;
  double value = 0.0;
};

/// An expression as one flat preorder array of genes: the subtree rooted at
/// gene i is the range [i, subtree_end(i)), so a clone is a copy and the GP
/// operators are splices. A site is a preorder index, the order a recursive
/// tree walk visits nodes in. Only the operations below build a Genome, so
/// every Genome is a well-formed tree.
class Genome {
 public:
  Genome() = default;  ///< empty; compiles to a program evaluating to 0
  /// Flatten `expr`. Throws std::length_error for a variable index above
  /// 65535, the bytecode limit of ExprProgram.
  explicit Genome(const Expr& expr);

  /// Grow-method random expression over `num_vars` variables.
  [[nodiscard]] static Genome random(util::Rng& rng, std::size_t num_vars,
                                     int max_depth);
  /// Subtree crossover: `a` with a random subtree replaced by a random
  /// subtree of `b`. A result exceeding `max_nodes` falls back to `a`.
  [[nodiscard]] static Genome crossover(const Genome& a, const Genome& b,
                                        util::Rng& rng, std::size_t max_nodes);
  /// Point/subtree mutation (constant jitter, operator swap, or subtree
  /// regrowth). A result exceeding `max_nodes` falls back to `g`.
  [[nodiscard]] static Genome mutate(const Genome& g, util::Rng& rng,
                                     std::size_t num_vars, int max_depth,
                                     std::size_t max_nodes);

  /// The same expression as a pointer tree.
  [[nodiscard]] Expr to_expr() const;

  [[nodiscard]] std::span<const Gene> genes() const noexcept { return genes_; }
  [[nodiscard]] std::size_t size() const noexcept { return genes_.size(); }
  [[nodiscard]] int depth() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return genes_.empty(); }

 private:
  [[nodiscard]] std::size_t subtree_end(std::size_t i) const noexcept;

  std::vector<Gene> genes_;
};

}  // namespace ftbesst::model
