#include "model/expr_program.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "model/expr_ops.hpp"
#include "obs/metrics.hpp"

namespace ftbesst::model {

namespace {

// Protected scalar kernels — shared with every other evaluator through
// model/expr_ops.hpp so the folder, the strip loops and the single-point
// evaluator are one definition.
using detail::op_add;
using detail::op_div;
using detail::op_log;
using detail::op_mul;
using detail::op_sqrt;
using detail::op_sub;

inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Compiler state: hash-consing of subtrees into registers.
///
/// compile_node reads one subtree of a Genome (preorder, advancing `pos`
/// past it) and returns an abstract Value — a compile-time constant, a
/// dataset column, or a register. Leaves stay abstract: an enclosing
/// operation embeds them as direct operands (Src::kCol / Src::kLit), so
/// constants and variables never spend an instruction or a register-wide
/// copy; only a bare-leaf *root* materializes (kConst/kVar opcode).
///
/// CSE never compares trees: because register numbers are canonical (two
/// structurally identical subtrees reach identical operand descriptors by
/// induction), a candidate instruction duplicates an earlier computation
/// exactly when an emitted instruction has the same (op, operand sources,
/// operand indices, literal bits). Dedup is a linear scan over the emitted
/// code — GP trees are tiny (max_nodes ~48), so a scan over a contiguous
/// POD array beats any node-allocating map by a wide margin, and
/// compilation happens once per individual per generation, squarely on the
/// calibration hot path. (Worst case is quadratic in distinct subterms; at
/// the 65535-term limit that would matter, but such expressions are
/// rejected anyway.) Literals are matched by bit pattern so +0.0/-0.0 and
/// NaN payloads (possible results of folding) stay distinct and
/// reproducible.
class Compiler {
 public:
  struct Value {
    enum Kind : std::uint8_t { kConstV, kColV, kRegV };
    Kind kind = kConstV;
    double constant = 0.0;
    std::uint16_t idx = 0;
  };

  Value compile_node(std::span<const Gene> genes, std::size_t& pos,
                     std::vector<ProgInstr>& code) {
    const Gene& n = genes[pos++];
    switch (n.op) {
      case Op::kConst:
        return Value{Value::kConstV, n.value, 0};
      case Op::kVar:
        if (n.var > std::numeric_limits<std::uint16_t>::max())
          throw std::length_error("variable index exceeds program limits");
        return Value{Value::kColV, 0.0, static_cast<std::uint16_t>(n.var)};
      case Op::kLog:
      case Op::kSqrt: {
        const Value a = compile_node(genes, pos, code);
        if (a.kind == Value::kConstV) {
          const double folded =
              n.op == Op::kLog ? op_log(a.constant) : op_sqrt(a.constant);
          return Value{Value::kConstV, folded, 0};
        }
        ProgInstr instr;
        instr.op = n.op;
        set_operand(instr.a_src, instr.a, instr.value, a);
        return Value{Value::kRegV, 0.0, emit(instr, code)};
      }
      default: {  // binary arithmetic
        const Value a = compile_node(genes, pos, code);
        const Value b = compile_node(genes, pos, code);
        if (a.kind == Value::kConstV && b.kind == Value::kConstV) {
          double folded = 0.0;
          switch (n.op) {
            case Op::kAdd: folded = op_add(a.constant, b.constant); break;
            case Op::kSub: folded = op_sub(a.constant, b.constant); break;
            case Op::kMul: folded = op_mul(a.constant, b.constant); break;
            case Op::kDiv: folded = op_div(a.constant, b.constant); break;
            default: break;
          }
          return Value{Value::kConstV, folded, 0};
        }
        ProgInstr instr;
        instr.op = n.op;
        set_operand(instr.a_src, instr.a, instr.value, a);
        set_operand(instr.b_src, instr.b, instr.value, b);
        return Value{Value::kRegV, 0.0, emit(instr, code)};
      }
    }
  }

  /// Register holding `v`, lowering a bare-leaf root to a kConst/kVar copy.
  std::uint16_t materialize(const Value& v, std::vector<ProgInstr>& code) {
    if (v.kind == Value::kRegV) return v.idx;
    ProgInstr instr;
    if (v.kind == Value::kConstV) {
      instr.op = Op::kConst;
      instr.value = v.constant;
    } else {
      instr.op = Op::kVar;
      instr.a = v.idx;
    }
    return emit(instr, code);
  }

  [[nodiscard]] std::uint16_t next_reg() const noexcept {
    return static_cast<std::uint16_t>(next_);
  }

 private:
  static void set_operand(Src& src, std::uint16_t& idx, double& value,
                          const Value& v) {
    switch (v.kind) {
      case Value::kConstV:
        src = Src::kLit;
        value = v.constant;  // at most one literal operand: both would fold
        break;
      case Value::kColV:
        src = Src::kCol;
        idx = v.idx;
        break;
      case Value::kRegV:
        src = Src::kReg;
        idx = v.idx;
        break;
    }
  }

  std::uint32_t emit_or_find(const ProgInstr& instr,
                             const std::vector<ProgInstr>& code) {
    for (const ProgInstr& e : code) {
      if (e.op == instr.op && e.a_src == instr.a_src &&
          e.b_src == instr.b_src && e.a == instr.a && e.b == instr.b &&
          bits(e.value) == bits(instr.value))
        return e.dst;
    }
    return kNotFound;
  }

  std::uint16_t emit(ProgInstr instr, std::vector<ProgInstr>& code) {
    if (const std::uint32_t existing = emit_or_find(instr, code);
        existing != kNotFound)
      return static_cast<std::uint16_t>(existing);
    if (next_ >= std::numeric_limits<std::uint16_t>::max())
      throw std::length_error("expression exceeds 65535 distinct subterms");
    instr.dst = static_cast<std::uint16_t>(next_++);
    code.push_back(instr);
    return instr.dst;
  }

  static constexpr std::uint32_t kNotFound = 0xffffffffu;
  std::uint32_t next_ = 0;
};

inline bool prog_is_binary(Op op) {
  return op == Op::kAdd || op == Op::kSub || op == Op::kMul || op == Op::kDiv;
}
inline bool prog_is_arith(Op op) {
  return prog_is_binary(op) || op == Op::kLog || op == Op::kSqrt;
}

/// Fuse single-use unary instructions into their producer's `post` slot.
/// Emission is in post-order, so a fusable producer is the instruction
/// directly before the unary; registers whose instruction was fused away
/// simply go unwritten (and, being single-use, unread). A pure function of
/// the emitted code — no data- or thread-dependent choices — so programs
/// stay deterministic.
void fuse_unaries(std::vector<ProgInstr>& code, std::uint16_t root,
                  std::uint16_t num_regs) {
  if (code.size() < 2) return;
  // This runs once per individual per generation; GP programs fit the
  // stack buffers (max_nodes ~48), so the common case does no allocation.
  constexpr std::size_t kStackRegs = 128;
  std::uint8_t uses_stack[kStackRegs];
  std::int32_t prod_stack[kStackRegs];
  std::vector<std::uint8_t> uses_heap;
  std::vector<std::int32_t> prod_heap;
  std::uint8_t* uses = uses_stack;
  std::int32_t* producer = prod_stack;
  if (num_regs > kStackRegs) {
    uses_heap.resize(num_regs);
    prod_heap.resize(num_regs);
    uses = uses_heap.data();
    producer = prod_heap.data();
  }
  std::fill_n(uses, num_regs, std::uint8_t{0});
  std::fill_n(producer, num_regs, -1);
  for (const ProgInstr& in : code) {
    if (prog_is_arith(in.op)) {
      if (in.a_src == Src::kReg && uses[in.a] < 2) ++uses[in.a];
      if (prog_is_binary(in.op) && in.b_src == Src::kReg && uses[in.b] < 2)
        ++uses[in.b];
    }
  }
  if (uses[root] < 2) ++uses[root];  // keep the root's producer intact

  // Fuse and compact in one scan. `producer[r]` is the *compacted* index
  // of the instruction that currently writes register r — emission is in
  // post-order, so an operand's producer has always been placed before its
  // consumer is visited.
  std::size_t w = 0;
  for (std::size_t k = 0; k < code.size(); ++k) {
    const ProgInstr in = code[k];
    if ((in.op == Op::kLog || in.op == Op::kSqrt) && in.post == Post::kNone &&
        in.a_src == Src::kReg && uses[in.a] == 1) {
      if (const std::int32_t j = producer[in.a]; j >= 0) {
        ProgInstr& pj = code[static_cast<std::size_t>(j)];
        if (prog_is_arith(pj.op) && pj.post == Post::kNone) {
          pj.post = in.op == Op::kLog ? Post::kLog : Post::kSqrt;
          pj.dst = in.dst;
          producer[in.dst] = j;
          continue;  // unary absorbed; no instruction placed
        }
      }
    }
    producer[in.dst] = static_cast<std::int32_t>(w);
    code[w++] = in;
  }
  code.resize(w);
}

/// Resolved batch operand: a contiguous array or a literal splat.
struct BatchOperand {
  const double* p = nullptr;
  double lit = 0.0;
  bool is_lit = false;
};

/// Run `dst[i] = op(a[i], b[i])` with either operand possibly a literal.
/// The three loops keep the operand ORDER of the source tree: + and * are
/// commutative for values but not for NaN payloads (hardware propagates
/// the first operand's payload), and bit-identity with Expr::eval is the
/// contract here.
template <typename F>
inline void binary_loop(double* dst, std::size_t n, const BatchOperand& a,
                        const BatchOperand& b, F op) {
  if (!a.is_lit && !b.is_lit) {
    const double* const x = a.p;
    const double* const y = b.p;
    for (std::size_t i = 0; i < n; ++i) dst[i] = op(x[i], y[i]);
  } else if (b.is_lit) {
    const double* const x = a.p;
    const double c = b.lit;
    for (std::size_t i = 0; i < n; ++i) dst[i] = op(x[i], c);
  } else {
    const double c = a.lit;
    const double* const y = b.p;
    for (std::size_t i = 0; i < n; ++i) dst[i] = op(c, y[i]);
  }
}

/// binary_loop with the instruction's fused `post` unary composed on top.
/// Composition nests the identical scalar calls in the identical order the
/// two-pass form would have used, so the bits match.
template <typename F>
inline void binary_dispatch(double* dst, std::size_t n, const BatchOperand& a,
                            const BatchOperand& b, Post post, F op) {
  switch (post) {
    case Post::kNone:
      binary_loop(dst, n, a, b, op);
      break;
    case Post::kLog:
      binary_loop(dst, n, a, b,
                  [op](double x, double y) { return op_log(op(x, y)); });
      break;
    case Post::kSqrt:
      binary_loop(dst, n, a, b,
                  [op](double x, double y) { return op_sqrt(op(x, y)); });
      break;
  }
}

template <typename F>
inline void unary_dispatch(double* dst, std::size_t n, const double* x,
                           Post post, F op) {
  switch (post) {
    case Post::kNone:
      for (std::size_t i = 0; i < n; ++i) dst[i] = op(x[i]);
      break;
    case Post::kLog:
      for (std::size_t i = 0; i < n; ++i) dst[i] = op_log(op(x[i]));
      break;
    case Post::kSqrt:
      for (std::size_t i = 0; i < n; ++i) dst[i] = op_sqrt(op(x[i]));
      break;
  }
}

}  // namespace

ExprProgram ExprProgram::compile(const Expr& expr) {
  return compile(Genome(expr));
}

ExprProgram ExprProgram::compile(const Genome& genome) {
  ExprProgram prog;
  compile_into(genome, prog);
  return prog;
}

void ExprProgram::compile_into(const Genome& genome, ExprProgram& out) {
  out.code_.clear();
  out.regs_ = 0;
  out.root_ = 0;
  out.tree_nodes_ = genome.size();
  if (genome.empty()) return;
  Compiler compiler;
  std::size_t pos = 0;
  const Compiler::Value root =
      compiler.compile_node(genome.genes(), pos, out.code_);
  out.root_ = compiler.materialize(root, out.code_);
  out.regs_ = compiler.next_reg();
  fuse_unaries(out.code_, out.root_, out.regs_);
}

void ExprProgram::eval_dataset(const Dataset& data, std::vector<double>& out,
                               EvalScratch& scratch) const {
  const std::size_t n = data.num_rows();
  out.resize(n);
  if (code_.empty()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  if (obs::enabled()) {
    static const obs::Counter evals = obs::counter("model.evals.scalar");
    static const obs::Counter rows = obs::counter("model.rows.scalar");
    evals.add(1);
    rows.add(n);
  }
  scratch.regs.resize(static_cast<std::size_t>(regs_) * n);
  double* const base = scratch.regs.data();
  const std::size_t num_params = data.num_params();

  const auto resolve = [&](Src src, std::uint16_t idx,
                           double value) -> BatchOperand {
    switch (src) {
      case Src::kReg:
        return {base + static_cast<std::size_t>(idx) * n, 0.0, false};
      case Src::kCol:
        if (idx < num_params) return {data.column(idx).data(), 0.0, false};
        if (scratch.zeros.size() < n) scratch.zeros.assign(n, 0.0);
        return {scratch.zeros.data(), 0.0, false};
      case Src::kLit:
      default:
        return {nullptr, value, true};
    }
  };

  // When the last instruction computes the root (the common case — the
  // root only lands elsewhere if unary fusion retargeted it), write it
  // straight into `out`; the final non-finite-to-zero clamp then runs as a
  // cheap in-place select over `out` instead of a copy out of a register.
  const bool fuse_root = code_.back().dst == root_;

  for (std::size_t k = 0; k < code_.size(); ++k) {
    const ProgInstr& instr = code_[k];
    const bool is_last = fuse_root && k + 1 == code_.size();
    double* const dst =
        is_last ? out.data()
                : base + static_cast<std::size_t>(instr.dst) * n;
    switch (instr.op) {
      case Op::kConst:  // root-leaf only
        std::fill_n(dst, n, instr.value);
        break;
      case Op::kVar: {  // root-leaf only
        const BatchOperand x = resolve(Src::kCol, instr.a, 0.0);
        std::copy_n(x.p, n, dst);  // no memcpy: dst is null when n == 0
        break;
      }
      case Op::kAdd:
        binary_dispatch(dst, n, resolve(instr.a_src, instr.a, instr.value),
                        resolve(instr.b_src, instr.b, instr.value), instr.post,
                        op_add);
        break;
      case Op::kSub:
        binary_dispatch(dst, n, resolve(instr.a_src, instr.a, instr.value),
                        resolve(instr.b_src, instr.b, instr.value), instr.post,
                        op_sub);
        break;
      case Op::kMul:
        binary_dispatch(dst, n, resolve(instr.a_src, instr.a, instr.value),
                        resolve(instr.b_src, instr.b, instr.value), instr.post,
                        op_mul);
        break;
      case Op::kDiv:
        binary_dispatch(dst, n, resolve(instr.a_src, instr.a, instr.value),
                        resolve(instr.b_src, instr.b, instr.value), instr.post,
                        op_div);
        break;
      case Op::kLog:
        unary_dispatch(dst, n, resolve(instr.a_src, instr.a, instr.value).p,
                       instr.post, op_log);
        break;
      case Op::kSqrt:
        unary_dispatch(dst, n, resolve(instr.a_src, instr.a, instr.value).p,
                       instr.post, op_sqrt);
        break;
    }
  }

  if (fuse_root) {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = std::isfinite(out[i]) ? out[i] : 0.0;
  } else {
    const double* const root = base + static_cast<std::size_t>(root_) * n;
    for (std::size_t i = 0; i < n; ++i)
      out[i] = std::isfinite(root[i]) ? root[i] : 0.0;
  }
}

}  // namespace ftbesst::model
