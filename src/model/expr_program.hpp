#pragma once
// Compiled batch evaluation for expressions.
//
// SymReg fitness is the calibration hot loop: every individual of every
// generation is evaluated on every dataset row. Walking the `Expr` tree
// per row (recursion, pointer chasing, one switch per node per row) is
// what the seed did; an ExprProgram instead lowers the expression once into
// a flat register program — with compile-time constant folding and
// common-subexpression elimination over the tree's DAG — and evaluates it
// column-wise over the structure-of-arrays view of a Dataset. There is one
// compiler, and it reads a Genome (the flat preorder form); compiling an
// `Expr` flattens it first. The inner
// loop is then one opcode switch per *instruction*, each running a tight
// vectorizable pass over contiguous doubles.
//
// Semantics contract: ExprProgram::eval_dataset is bit-identical to calling
// Expr::eval row by row, including the protected-operator behaviour
// (x/den with |den| < 1e-9 returns x, log is log1p|x|, sqrt is sqrt|x|),
// out-of-range variables reading as 0, and the final non-finite-to-zero
// clamp. CSE only merges structurally identical subtrees and constant
// folding performs the very same double operations at compile time, so
// neither transformation can change a single result bit. This is enforced
// by tests/model/test_expr_program.cpp and bench_ext_symreg's divergence
// check.
//
// eval_dataset's strip interpreter is the only batch path: symbolic
// regression fits each kernel model once, before any simulation runs, so
// no end-to-end workload is bound by it (see ARCHITECTURE.md, "Batch
// evaluation").

#include <cstdint>
#include <vector>

#include "model/dataset.hpp"
#include "model/expr.hpp"

namespace ftbesst::model {

/// Where an instruction operand comes from. Variables and constants are
/// not materialized into registers: an arithmetic instruction reads a
/// dataset column or an inline literal directly, so leaf nodes cost no
/// instructions (and no memory traffic) at all. kVar/kConst opcodes only
/// appear when the *root* of the tree is itself a bare leaf.
enum class Src : std::uint8_t {
  kReg,    ///< operand index is a register
  kCol,    ///< operand index is a variable/column (out of range reads 0)
  kLit,    ///< operand is the instruction's `value` literal
};

/// Optional unary applied to an instruction's result in the same pass.
/// A protected log/sqrt whose operand is used exactly once is fused into
/// its producer (`log(a + b)` is one loop, not two), eliminating a full
/// register-width store + reload. The composed value is computed with the
/// identical scalar operations in the identical order, so fusion cannot
/// change a result bit.
enum class Post : std::uint8_t { kNone, kLog, kSqrt };

/// One register-machine instruction. For arithmetic opcodes `a`/`b` are
/// operand indices interpreted per `a_src`/`b_src` (at most one operand is
/// a literal — two literals would have been folded). For a root-leaf kVar,
/// `a` is the variable index; for a root-leaf kConst, `value` is the
/// literal.
struct ProgInstr {
  Op op = Op::kConst;
  Src a_src = Src::kReg;
  Src b_src = Src::kReg;
  Post post = Post::kNone;
  std::uint16_t dst = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  double value = 0.0;
};

/// Reusable evaluation workspace. Passing one in across calls amortizes
/// the allocations over a whole population/generation. The strip
/// interpreter uses `regs` (registers x rows); `zeros` is the read target
/// for out-of-range variables.
struct EvalScratch {
  std::vector<double> regs;
  std::vector<double> zeros;
};

class ExprProgram {
 public:
  ExprProgram() = default;  ///< evaluates to 0.0 everywhere, like empty Expr

  /// Lower `genome` to a flat program. Structurally identical subtrees are
  /// computed once (CSE) and all-constant subtrees are folded at compile
  /// time using the exact protected eval() semantics. Throws
  /// std::length_error for a variable index above 65535 or, in the
  /// (pathological) case, more than 65535 distinct subexpressions.
  [[nodiscard]] static ExprProgram compile(const Genome& genome);
  /// compile(Genome(expr)).
  [[nodiscard]] static ExprProgram compile(const Expr& expr);

  /// As compile(), but reuses `out`'s storage (cleared, capacity kept).
  /// The population loop lowers thousands of programs per generation;
  /// recycling one ExprProgram keeps that loop malloc-free.
  static void compile_into(const Genome& genome, ExprProgram& out);

  /// Evaluate over every row of `data`, column-wise, into `out` (resized
  /// to data.num_rows()). Bit-identical to Expr::eval on each row.
  void eval_dataset(const Dataset& data, std::vector<double>& out,
                    EvalScratch& scratch) const;

  [[nodiscard]] std::size_t num_instructions() const noexcept {
    return code_.size();
  }
  /// Node count of the source expression; num_instructions() below this
  /// measures the work removed by folding + CSE.
  [[nodiscard]] std::size_t tree_nodes() const noexcept { return tree_nodes_; }
  [[nodiscard]] bool empty() const noexcept { return code_.empty(); }

 private:
  std::vector<ProgInstr> code_;
  std::uint16_t regs_ = 0;      // registers used
  std::uint16_t root_ = 0;      // register holding the root's value
  std::size_t tree_nodes_ = 0;
};

}  // namespace ftbesst::model
