#include "model/expr.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

namespace ftbesst::model {
namespace {

TEST(Expr, ConstantAndVariableEval) {
  const auto c = Expr::constant(2.5);
  EXPECT_DOUBLE_EQ(c.eval(std::array<double, 0>{}), 2.5);
  const auto v = Expr::variable(1);
  EXPECT_DOUBLE_EQ(v.eval(std::array{3.0, 7.0}), 7.0);
}

TEST(Expr, VariableBeyondInputIsZero) {
  const auto v = Expr::variable(5);
  EXPECT_DOUBLE_EQ(v.eval(std::array{1.0}), 0.0);
}

TEST(Expr, ArithmeticOps) {
  const std::array vars{6.0, 3.0};
  auto mk = [](Op op) {
    return Expr::binary(op, Expr::variable(0), Expr::variable(1));
  };
  EXPECT_DOUBLE_EQ(mk(Op::kAdd).eval(vars), 9.0);
  EXPECT_DOUBLE_EQ(mk(Op::kSub).eval(vars), 3.0);
  EXPECT_DOUBLE_EQ(mk(Op::kMul).eval(vars), 18.0);
  EXPECT_DOUBLE_EQ(mk(Op::kDiv).eval(vars), 2.0);
}

TEST(Expr, ProtectedDivisionReturnsNumerator) {
  const auto div = Expr::binary(Op::kDiv, Expr::constant(7.0),
                                Expr::constant(0.0));
  EXPECT_DOUBLE_EQ(div.eval(std::array<double, 0>{}), 7.0);
}

TEST(Expr, ProtectedLogAndSqrt) {
  const auto lg = Expr::unary(Op::kLog, Expr::constant(-9.0));
  EXPECT_NEAR(lg.eval(std::array<double, 0>{}), std::log(10.0), 1e-12);
  const auto sq = Expr::unary(Op::kSqrt, Expr::constant(-16.0));
  EXPECT_DOUBLE_EQ(sq.eval(std::array<double, 0>{}), 4.0);
}

TEST(Expr, EmptyExprEvalsToZero) {
  const Expr e;
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.eval(std::array{1.0}), 0.0);
  EXPECT_EQ(e.size(), 0u);
}

TEST(Expr, SizeAndDepth) {
  const auto e = Expr::binary(
      Op::kAdd, Expr::variable(0),
      Expr::binary(Op::kMul, Expr::constant(2.0), Expr::variable(0)));
  EXPECT_EQ(e.size(), 5u);
  EXPECT_EQ(e.depth(), 3);
}

TEST(Expr, CloneIsDeepAndIndependent) {
  auto orig = Expr::binary(Op::kAdd, Expr::constant(1.0), Expr::variable(0));
  const Expr copy = orig.clone();
  EXPECT_EQ(copy.size(), orig.size());
  EXPECT_DOUBLE_EQ(copy.eval(std::array{5.0}), orig.eval(std::array{5.0}));
}

TEST(Expr, StrUsesNames) {
  const auto e = Expr::binary(Op::kMul, Expr::variable(0), Expr::variable(1));
  const std::array<std::string, 2> names{"epr", "ranks"};
  EXPECT_EQ(e.str(names), "(epr * ranks)");
  EXPECT_EQ(e.str(), "(x0 * x1)");
}

TEST(Expr, RandomRespectsDepthLimit) {
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto e = Expr::random(rng, 2, 4);
    EXPECT_LE(e.depth(), 4);
    EXPECT_GE(e.size(), 1u);
    // Always evaluable and finite.
    const double v = e.eval(std::array{3.0, 5.0});
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Expr, CrossoverStaysWithinNodeBudget) {
  util::Rng rng(4);
  const auto a = Genome::random(rng, 2, 5);
  const auto b = Genome::random(rng, 2, 5);
  for (int i = 0; i < 100; ++i) {
    const auto child = Genome::crossover(a, b, rng, 20);
    EXPECT_LE(child.size(), 20u);
    EXPECT_TRUE(std::isfinite(child.to_expr().eval(std::array{1.0, 2.0})));
  }
}

TEST(Expr, MutateProducesValidTrees) {
  util::Rng rng(5);
  auto g = Genome::random(rng, 2, 4);
  for (int i = 0; i < 200; ++i) {
    g = Genome::mutate(g, rng, 2, 4, 30);
    EXPECT_LE(g.size(), 30u);
    EXPECT_TRUE(std::isfinite(g.to_expr().eval(std::array{2.0, 8.0})));
  }
}

TEST(Expr, MutateEmptyRegrows) {
  util::Rng rng(6);
  const Genome empty;
  const auto g = Genome::mutate(empty, rng, 2, 3, 10);
  EXPECT_GE(g.size(), 1u);
}

}  // namespace
}  // namespace ftbesst::model
