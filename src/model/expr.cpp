#include "model/expr.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/number.hpp"

namespace ftbesst::model {

namespace {

std::unique_ptr<ExprNode> clone_node(const ExprNode* n) {
  if (!n) return nullptr;
  auto out = std::make_unique<ExprNode>();
  out->op = n->op;
  out->value = n->value;
  out->var = n->var;
  out->lhs = clone_node(n->lhs.get());
  out->rhs = clone_node(n->rhs.get());
  return out;
}

double eval_node(const ExprNode* n, std::span<const double> vars) {
  switch (n->op) {
    case Op::kConst:
      return n->value;
    case Op::kVar:
      return n->var < vars.size() ? vars[n->var] : 0.0;
    case Op::kAdd:
      return eval_node(n->lhs.get(), vars) + eval_node(n->rhs.get(), vars);
    case Op::kSub:
      return eval_node(n->lhs.get(), vars) - eval_node(n->rhs.get(), vars);
    case Op::kMul:
      return eval_node(n->lhs.get(), vars) * eval_node(n->rhs.get(), vars);
    case Op::kDiv: {
      const double num = eval_node(n->lhs.get(), vars);
      const double den = eval_node(n->rhs.get(), vars);
      return std::abs(den) < 1e-9 ? num : num / den;
    }
    case Op::kLog:
      return std::log(std::abs(eval_node(n->lhs.get(), vars)) + 1.0);
    case Op::kSqrt:
      return std::sqrt(std::abs(eval_node(n->lhs.get(), vars)));
  }
  return 0.0;
}

std::size_t size_node(const ExprNode* n) {
  if (!n) return 0;
  return 1 + size_node(n->lhs.get()) + size_node(n->rhs.get());
}

int depth_node(const ExprNode* n) {
  if (!n) return 0;
  return 1 + std::max(depth_node(n->lhs.get()), depth_node(n->rhs.get()));
}

std::string str_node(const ExprNode* n, std::span<const std::string> names) {
  if (!n) return "0";
  switch (n->op) {
    case Op::kConst: {
      std::ostringstream os;
      os << n->value;
      return os.str();
    }
    case Op::kVar:
      return n->var < names.size() ? names[n->var]
                                   : "x" + std::to_string(n->var);
    case Op::kLog:
      return "log1p|" + str_node(n->lhs.get(), names) + "|";
    case Op::kSqrt:
      return "sqrt|" + str_node(n->lhs.get(), names) + "|";
    default: {
      const char* sym = n->op == Op::kAdd   ? " + "
                        : n->op == Op::kSub ? " - "
                        : n->op == Op::kMul ? " * "
                                            : " / ";
      return "(" + str_node(n->lhs.get(), names) + sym +
             str_node(n->rhs.get(), names) + ")";
    }
  }
}

/// Log-uniform constant in [1e-6, 100), signed positive (timing terms are
/// additive-positive; subtraction exists as an operator).
double random_constant(util::Rng& rng) {
  return std::pow(10.0, rng.uniform(-6.0, 2.0));
}

/// Append a grow-method random subtree to `out` in preorder.
void grow(util::Rng& rng, std::size_t num_vars, int max_depth,
          std::vector<Gene>& out) {
  Gene gene;
  const double roll = rng.uniform();
  if (max_depth <= 1 || roll < 0.25) {  // terminal
    if (num_vars > 0 && rng.uniform() < 0.6) {
      gene.op = Op::kVar;
      gene.var = static_cast<std::uint32_t>(rng.uniform_int(num_vars));
    } else {
      gene.value = random_constant(rng);
    }
    out.push_back(gene);
    return;
  }
  if (roll < 0.40) {  // unary
    gene.op = rng.uniform() < 0.5 ? Op::kLog : Op::kSqrt;
  } else {
    // Bias toward multiplication — performance models are mostly products
    // of powers of the parameters.
    const double pick = rng.uniform();
    gene.op = pick < 0.4   ? Op::kMul
              : pick < 0.6 ? Op::kAdd
              : pick < 0.8 ? Op::kDiv
                           : Op::kSub;
  }
  out.push_back(gene);
  grow(rng, num_vars, max_depth - 1, out);
  if (is_binary(gene.op)) grow(rng, num_vars, max_depth - 1, out);
}

void flatten(const ExprNode* n, std::vector<Gene>& out) {
  if (!n) {  // a missing operand reads as (const 0), like to_sexpr()
    out.emplace_back();
    return;
  }
  if (n->op == Op::kVar && n->var > std::numeric_limits<std::uint16_t>::max())
    throw std::length_error("variable index exceeds program limits");
  out.push_back(Gene{n->op, static_cast<std::uint32_t>(n->var), n->value});
  if (is_binary(n->op) || is_unary(n->op)) flatten(n->lhs.get(), out);
  if (is_binary(n->op)) flatten(n->rhs.get(), out);
}

Expr build(std::span<const Gene> genes, std::size_t& pos) {
  const Gene& gene = genes[pos++];
  if (gene.op == Op::kConst) return Expr::constant(gene.value);
  if (gene.op == Op::kVar) return Expr::variable(gene.var);
  Expr lhs = build(genes, pos);
  if (is_unary(gene.op)) return Expr::unary(gene.op, std::move(lhs));
  Expr rhs = build(genes, pos);
  return Expr::binary(gene.op, std::move(lhs), std::move(rhs));
}

int depth_at(std::span<const Gene> genes, std::size_t& pos) {
  const Op op = genes[pos++].op;
  int below = 0;
  if (is_binary(op) || is_unary(op)) below = depth_at(genes, pos);
  if (is_binary(op)) below = std::max(below, depth_at(genes, pos));
  return 1 + below;
}

}  // namespace

Expr Expr::constant(double v) {
  auto n = std::make_unique<ExprNode>();
  n->op = Op::kConst;
  n->value = v;
  return Expr(std::move(n));
}

Expr Expr::variable(std::size_t index) {
  auto n = std::make_unique<ExprNode>();
  n->op = Op::kVar;
  n->var = index;
  return Expr(std::move(n));
}

Expr Expr::binary(Op op, Expr lhs, Expr rhs) {
  auto n = std::make_unique<ExprNode>();
  n->op = op;
  n->lhs = std::move(lhs.root_);
  n->rhs = std::move(rhs.root_);
  return Expr(std::move(n));
}

Expr Expr::unary(Op op, Expr operand) {
  auto n = std::make_unique<ExprNode>();
  n->op = op;
  n->lhs = std::move(operand.root_);
  return Expr(std::move(n));
}

Expr Expr::random(util::Rng& rng, std::size_t num_vars, int max_depth) {
  return Genome::random(rng, num_vars, max_depth).to_expr();
}

Genome::Genome(const Expr& expr) {
  if (!expr.empty()) flatten(expr.root(), genes_);
}

Genome Genome::random(util::Rng& rng, std::size_t num_vars, int max_depth) {
  Genome g;
  grow(rng, num_vars, std::max(1, max_depth), g.genes_);
  return g;
}

std::size_t Genome::subtree_end(std::size_t i) const noexcept {
  std::size_t open = 1;  // subtrees begun but not yet read
  while (open > 0) {
    const Op op = genes_[i++].op;
    open = open - 1 + (is_binary(op) ? 2 : is_unary(op) ? 1 : 0);
  }
  return i;
}

Genome Genome::crossover(const Genome& a, const Genome& b, util::Rng& rng,
                         std::size_t max_nodes) {
  if (a.empty() || b.empty()) return a;
  const std::size_t site = rng.uniform_int(a.size());
  const std::size_t donor = rng.uniform_int(b.size());
  const std::size_t site_end = a.subtree_end(site);
  const std::size_t donor_end = b.subtree_end(donor);
  if (a.size() - (site_end - site) + (donor_end - donor) > max_nodes) return a;
  Genome child;
  std::vector<Gene>& out = child.genes_;
  out.reserve(a.size() - (site_end - site) + (donor_end - donor));
  out.insert(out.end(), a.genes_.begin(), a.genes_.begin() + site);
  out.insert(out.end(), b.genes_.begin() + donor, b.genes_.begin() + donor_end);
  out.insert(out.end(), a.genes_.begin() + site_end, a.genes_.end());
  return child;
}

Genome Genome::mutate(const Genome& g, util::Rng& rng, std::size_t num_vars,
                      int max_depth, std::size_t max_nodes) {
  if (g.empty()) return random(rng, num_vars, max_depth);
  Genome out = g;
  const std::size_t i = rng.uniform_int(g.size());
  Gene& site = out.genes_[i];
  const double roll = rng.uniform();
  if (site.op == Op::kConst && roll < 0.6) {
    // Jitter the constant multiplicatively (and occasionally re-draw).
    site.value = rng.uniform() < 0.15
                     ? random_constant(rng)
                     : site.value * std::exp(rng.normal(0.0, 0.3));
  } else if (roll < 0.5) {
    // Regrow the subtree.
    std::vector<Gene> fresh;
    grow(rng, num_vars, std::max(1, max_depth - 1), fresh);
    const auto first = out.genes_.begin() + static_cast<std::ptrdiff_t>(i);
    const auto last = out.genes_.begin() +
                      static_cast<std::ptrdiff_t>(g.subtree_end(i));
    out.genes_.insert(out.genes_.erase(first, last), fresh.begin(),
                      fresh.end());
  } else if (is_binary(site.op)) {
    constexpr Op kBinary[] = {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv};
    site.op = kBinary[rng.uniform_int(4)];
  } else if (is_unary(site.op)) {
    site.op = site.op == Op::kLog ? Op::kSqrt : Op::kLog;
  } else if (site.op == Op::kVar && num_vars > 0) {
    site.var = static_cast<std::uint32_t>(rng.uniform_int(num_vars));
  } else {
    site.value = random_constant(rng);
  }
  if (out.size() > max_nodes) return g;
  return out;
}

Expr Genome::to_expr() const {
  std::size_t pos = 0;
  return genes_.empty() ? Expr() : build(genes_, pos);
}

int Genome::depth() const noexcept {
  std::size_t pos = 0;
  return genes_.empty() ? 0 : depth_at(genes_, pos);
}

double Expr::eval(std::span<const double> vars) const {
  if (!root_) return 0.0;
  const double v = eval_node(root_.get(), vars);
  return std::isfinite(v) ? v : 0.0;
}

std::size_t Expr::size() const noexcept { return size_node(root_.get()); }
int Expr::depth() const noexcept { return depth_node(root_.get()); }
Expr Expr::clone() const { return Expr(clone_node(root_.get())); }

std::string Expr::str(std::span<const std::string> names) const {
  return str_node(root_.get(), names);
}

namespace {

/// S-expression operator names, indexed by Op.
constexpr std::array<std::string_view, 8> kOpNames{
    "const", "var", "add", "sub", "mul", "div", "log", "sqrt"};

void sexpr_node(const ExprNode* n, std::ostringstream& os) {
  if (!n) {
    os << "(const 0)";
    return;
  }
  os << '(' << kOpNames[static_cast<std::size_t>(n->op)];
  switch (n->op) {
    case Op::kConst:
      // max_digits10 so the value round-trips bit-exactly.
      os.precision(17);
      os << ' ' << n->value;
      break;
    case Op::kVar:
      os << ' ' << n->var;
      break;
    default:
      os << ' ';
      sexpr_node(n->lhs.get(), os);
      if (is_binary(n->op)) {
        os << ' ';
        sexpr_node(n->rhs.get(), os);
      }
      break;
  }
  os << ')';
}

/// Minimal recursive-descent S-expression parser.
class SexprParser {
 public:
  explicit SexprParser(const std::string& text) : text_(text) {}

  std::unique_ptr<ExprNode> parse() {
    auto node = parse_node();
    skip_ws();
    if (pos_ != text_.size())
      throw std::invalid_argument("trailing input in expression: '" +
                                  text_.substr(pos_) + "'");
    return node;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(
                                      text_[pos_])))
      ++pos_;
  }
  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c)
      throw std::invalid_argument(std::string("expected '") + c + "' at " +
                                  std::to_string(pos_));
    ++pos_;
  }
  std::string token() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '(' && text_[pos_] != ')' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (start == pos_)
      throw std::invalid_argument("expected token at " + std::to_string(pos_));
    return text_.substr(start, pos_ - start);
  }

  double number_token() {
    return util::parse_number<double>(token(), "const");
  }
  // The bytecode compiler packs variable indices into 16 bits; accepting a
  // wider index here would defer the failure to compile time with the
  // wrong exception type.
  std::size_t index_token() {
    return util::parse_number<std::uint16_t>(token(), "var index");
  }

  std::unique_ptr<ExprNode> parse_node() {
    // Recursion depth is attacker-controlled ("(log (log (log ..."); cap it
    // well above any fitted expression but below stack exhaustion.
    if (++depth_ > 256)
      throw std::invalid_argument("expression nesting too deep");
    expect('(');
    const std::string op = token();
    const auto named = std::find(kOpNames.begin(), kOpNames.end(), op);
    if (named == kOpNames.end())
      throw std::invalid_argument("unknown operator '" + op + "'");
    auto node = std::make_unique<ExprNode>();
    node->op = static_cast<Op>(named - kOpNames.begin());
    if (node->op == Op::kConst) node->value = number_token();
    if (node->op == Op::kVar) node->var = index_token();
    if (is_unary(node->op) || is_binary(node->op)) node->lhs = parse_node();
    if (is_binary(node->op)) node->rhs = parse_node();
    expect(')');
    --depth_;
    return node;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string Expr::to_sexpr() const {
  std::ostringstream os;
  sexpr_node(root_.get(), os);
  return os.str();
}

Expr Expr::from_sexpr(const std::string& text) {
  return Expr(SexprParser(text).parse());
}

namespace {

bool is_const(const ExprNode* n, double value) {
  return n && n->op == Op::kConst && n->value == value;
}

std::unique_ptr<ExprNode> make_const(double v) {
  auto n = std::make_unique<ExprNode>();
  n->op = Op::kConst;
  n->value = v;
  return n;
}

bool nodes_identical(const ExprNode* a, const ExprNode* b) {
  if (!a || !b) return a == b;
  if (a->op != b->op) return false;
  switch (a->op) {
    case Op::kConst: return a->value == b->value;
    case Op::kVar: return a->var == b->var;
    default:
      return nodes_identical(a->lhs.get(), b->lhs.get()) &&
             nodes_identical(a->rhs.get(), b->rhs.get());
  }
}

std::unique_ptr<ExprNode> simplify_node(const ExprNode* n) {
  if (!n) return nullptr;
  if (n->op == Op::kConst || n->op == Op::kVar) return clone_node(n);

  auto out = std::make_unique<ExprNode>();
  out->op = n->op;
  out->lhs = simplify_node(n->lhs.get());
  out->rhs = simplify_node(n->rhs.get());
  const ExprNode* l = out->lhs.get();
  const ExprNode* r = out->rhs.get();

  // Constant folding: every operand a literal -> evaluate with the same
  // protected semantics as eval().
  const bool lc = l && l->op == Op::kConst;
  const bool rc = r && r->op == Op::kConst;
  switch (out->op) {
    case Op::kAdd:
      if (lc && rc) return make_const(l->value + r->value);
      if (is_const(l, 0.0)) return std::move(out->rhs);
      if (is_const(r, 0.0)) return std::move(out->lhs);
      break;
    case Op::kSub:
      if (lc && rc) return make_const(l->value - r->value);
      if (is_const(r, 0.0)) return std::move(out->lhs);
      if (nodes_identical(l, r)) return make_const(0.0);
      break;
    case Op::kMul:
      if (lc && rc) return make_const(l->value * r->value);
      if (is_const(l, 1.0)) return std::move(out->rhs);
      if (is_const(r, 1.0)) return std::move(out->lhs);
      if (is_const(l, 0.0) || is_const(r, 0.0)) return make_const(0.0);
      break;
    case Op::kDiv:
      if (lc && rc)
        return make_const(std::abs(r->value) < 1e-9 ? l->value
                                                    : l->value / r->value);
      if (is_const(r, 1.0)) return std::move(out->lhs);
      if (is_const(l, 0.0)) return make_const(0.0);
      break;
    case Op::kLog:
      if (lc) return make_const(std::log(std::abs(l->value) + 1.0));
      break;
    case Op::kSqrt:
      if (lc) return make_const(std::sqrt(std::abs(l->value)));
      break;
    default:
      break;
  }
  return out;
}

}  // namespace

Expr Expr::simplified() const { return Expr(simplify_node(root_.get())); }

}  // namespace ftbesst::model
