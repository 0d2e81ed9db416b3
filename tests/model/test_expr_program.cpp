// The compiled batch evaluator's contract: bit-for-bit agreement with the
// tree-walk oracle Expr::eval over arbitrary expressions and datasets
// (including the protected-operator edge cases), real work reduction from
// CSE + constant folding, and SymReg fits that do not depend on the thread
// or pool they run on.

#include "model/expr_program.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "model/feature_model.hpp"
#include "model/symreg.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace ftbesst::model {
namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Random dataset whose parameter values stress the protected operators:
/// zeros, denormal-scale magnitudes around the 1e-9 division guard,
/// negatives, and values big enough to overflow products.
Dataset random_dataset(util::Rng& rng, std::size_t num_params,
                       std::size_t rows) {
  std::vector<std::string> names;
  for (std::size_t d = 0; d < num_params; ++d)
    names.push_back("x" + std::to_string(d));
  Dataset data(std::move(names));
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> params(num_params);
    for (auto& p : params) {
      const double roll = rng.uniform();
      if (roll < 0.1) {
        p = 0.0;
      } else if (roll < 0.2) {
        p = rng.uniform(-2e-9, 2e-9);  // straddles the division guard
      } else if (roll < 0.3) {
        p = std::pow(10.0, rng.uniform(100.0, 200.0));  // overflow fodder
      } else {
        p = rng.uniform(-1e4, 1e4);
      }
    }
    data.add_row(std::move(params), {rng.uniform(0.1, 10.0)});
  }
  return data;
}

/// The program's value on one row (for programs that read no variable).
double eval_constant(const ExprProgram& prog) {
  Dataset data({"unused"});
  data.add_row({0.0}, {1.0});
  std::vector<double> out;
  EvalScratch scratch;
  prog.eval_dataset(data, out, scratch);
  return out.at(0);
}

void expect_bitwise_match(const Expr& expr, const Dataset& data,
                          const std::string& context) {
  const ExprProgram prog = ExprProgram::compile(expr);
  std::vector<double> batch;
  EvalScratch scratch;
  prog.eval_dataset(data, batch, scratch);
  ASSERT_EQ(batch.size(), data.num_rows()) << context;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    const double reference = expr.eval(data.row(r).params);
    EXPECT_TRUE(bits_equal(reference, batch[r]))
        << context << " row " << r << ": tree-walk " << reference
        << " vs compiled " << batch[r] << " for " << expr.to_sexpr();
  }
}

TEST(ExprProgram, PropertyRandomExpressionsMatchTreeWalkBitForBit) {
  util::Rng rng(20240805);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t num_params = 1 + rng.uniform_int(4);
    const int depth = 1 + static_cast<int>(rng.uniform_int(7));
    const Dataset data = random_dataset(rng, num_params, 16);
    const Expr expr = Expr::random(rng, num_params, depth);
    expect_bitwise_match(expr, data, "trial " + std::to_string(trial));
  }
}

TEST(ExprProgram, DivisionGuardMatchesAtTheThreshold) {
  // x0 / x1 with denominators exactly at, just under, and just over 1e-9.
  const Expr expr = Expr::binary(Op::kDiv, Expr::variable(0),
                                 Expr::variable(1));
  Dataset data({"a", "b"});
  for (double den : {0.0, 1e-9, std::nextafter(1e-9, 0.0), -1e-9, 9.9e-10,
                     -9.9e-10, 2e-9, 1.0})
    data.add_row({3.5, den}, {1.0});
  expect_bitwise_match(expr, data, "division guard");
}

TEST(ExprProgram, NonFiniteRootClampsToZeroLikeTreeWalk) {
  // x0 * x0 overflows to +inf for |x0| ~ 1e200; (x0*x0) - (x0*x0) is then
  // inf - inf = NaN (and exercises CSE on the shared subterm). Both must
  // clamp to 0 exactly as Expr::eval does.
  const Expr sq = Expr::binary(Op::kMul, Expr::variable(0), Expr::variable(0));
  const Expr nan_expr =
      Expr::binary(Op::kSub, sq.clone(), sq.clone());
  Dataset data({"a"});
  data.add_row({1e200}, {1.0});
  data.add_row({-1e200}, {1.0});
  data.add_row({2.0}, {1.0});
  expect_bitwise_match(sq, data, "inf clamp");
  expect_bitwise_match(nan_expr, data, "nan clamp");
  const ExprProgram prog = ExprProgram::compile(nan_expr);
  std::vector<double> out;
  EvalScratch scratch;
  prog.eval_dataset(data, out, scratch);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
  EXPECT_EQ(out[2], 0.0);  // 4 - 4, legitimately zero
}

TEST(ExprProgram, ProtectedUnariesMatchOnNegatives) {
  const Expr log_expr = Expr::unary(Op::kLog, Expr::variable(0));
  const Expr sqrt_expr = Expr::unary(Op::kSqrt, Expr::variable(0));
  Dataset data({"a"});
  for (double v : {-100.0, -1.0, -1e-12, 0.0, 1e-12, 1.0, 100.0})
    data.add_row({v}, {1.0});
  expect_bitwise_match(log_expr, data, "protected log");
  expect_bitwise_match(sqrt_expr, data, "protected sqrt");
}

TEST(ExprProgram, OutOfRangeVariableReadsZero) {
  const Expr expr = Expr::binary(Op::kAdd, Expr::variable(7),
                                 Expr::variable(0));
  Dataset data({"a"});  // only one parameter; var 7 must read 0.0
  data.add_row({42.0}, {1.0});
  expect_bitwise_match(expr, data, "out-of-range var");
}

TEST(ExprProgram, ScalarScratchZerosAreAlignedAndPadded) {
  // The strip path serves out-of-range variables from EvalScratch::zeros,
  // which must cover every row and hold only zeros.
  const Expr expr = Expr::binary(Op::kAdd, Expr::variable(7),
                                 Expr::variable(0));
  Dataset data({"a"});
  for (int i = 0; i < 11; ++i) data.add_row({double(i)}, {1.0});
  const ExprProgram prog = ExprProgram::compile(expr);
  std::vector<double> out;
  EvalScratch scratch;
  prog.eval_dataset(data, out, scratch);
  ASSERT_GE(scratch.zeros.size(), data.num_rows());
  for (const double z : scratch.zeros) EXPECT_EQ(z, 0.0);
  for (std::size_t r = 0; r < data.num_rows(); ++r)
    EXPECT_TRUE(bits_equal(out[r], double(r)));
}

TEST(ExprProgram, BareLeafRootsMaterialize) {
  // A tree that is just a variable (or just a constant) has no arithmetic
  // instruction to embed the leaf into, so the root itself must lower to a
  // kVar/kConst copy.
  Dataset data({"a", "b"});
  data.add_row({3.0, 4.0}, {1.0});
  data.add_row({-7.5, 0.0}, {1.0});
  expect_bitwise_match(Expr::variable(1), data, "bare variable root");
  expect_bitwise_match(Expr::variable(9), data, "bare out-of-range root");
  expect_bitwise_match(Expr::constant(2.5), data, "bare constant root");
}

TEST(ExprProgram, CommonSubexpressionsComputedOnce) {
  // (x0 + x1) * (x0 + x1): 7 tree nodes, but only 2 instructions — the
  // variables are direct column operands (no instruction at all), the sum
  // is computed once (CSE) and the product reuses its register twice.
  const Expr sum = Expr::binary(Op::kAdd, Expr::variable(0), Expr::variable(1));
  const Expr expr = Expr::binary(Op::kMul, sum.clone(), sum.clone());
  const ExprProgram prog = ExprProgram::compile(expr);
  EXPECT_EQ(prog.tree_nodes(), 7u);
  EXPECT_EQ(prog.num_instructions(), 2u);
}

TEST(ExprProgram, ConstantSubtreesFoldAtCompileTime) {
  // (2 * 3) + x0 folds the product and embeds both the folded literal and
  // the variable as direct operands of a single add; sqrt(log(5)) folds
  // entirely.
  const Expr expr = Expr::binary(
      Op::kAdd, Expr::binary(Op::kMul, Expr::constant(2.0), Expr::constant(3.0)),
      Expr::variable(0));
  const ExprProgram prog = ExprProgram::compile(expr);
  EXPECT_EQ(prog.num_instructions(), 1u);  // add(lit 6, col 0)

  const Expr all_const =
      Expr::unary(Op::kSqrt, Expr::unary(Op::kLog, Expr::constant(5.0)));
  const ExprProgram folded = ExprProgram::compile(all_const);
  EXPECT_EQ(folded.num_instructions(), 1u);
  EXPECT_TRUE(bits_equal(eval_constant(folded),
                         std::sqrt(std::log(std::abs(5.0) + 1.0))));
}

TEST(ExprProgram, FoldingRespectsProtectedDivision) {
  // (1 / 0) folds to the numerator per the protection rule, same as eval.
  const Expr expr =
      Expr::binary(Op::kDiv, Expr::constant(1.5), Expr::constant(0.0));
  const ExprProgram prog = ExprProgram::compile(expr);
  EXPECT_EQ(prog.num_instructions(), 1u);
  EXPECT_TRUE(bits_equal(eval_constant(prog), expr.eval({})));
  EXPECT_DOUBLE_EQ(eval_constant(prog), 1.5);
}

TEST(ExprProgram, EmptyExpressionEvaluatesToZeros) {
  const ExprProgram prog = ExprProgram::compile(Expr{});
  EXPECT_TRUE(prog.empty());
  Dataset data({"a"});
  data.add_row({1.0}, {1.0});
  data.add_row({2.0}, {1.0});
  std::vector<double> out(5, 99.0);
  EvalScratch scratch;
  prog.eval_dataset(data, out, scratch);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
}

// -- Adversarial-input properties of the column-wise batch path ----------
// Every opcode x operand source x Post fusion, on inputs that stress the
// protected operators (denormals, +/-inf, NaN payloads, denominators
// straddling the 1e-9 guard) and at edge row counts. The ExprSimd suite
// name covers the strip loops the compiler vectorizes.

/// Adversarial parameter values: protected-operator edge cases first, then
/// ordinary magnitudes. NaNs carry distinct payloads so bit comparison
/// catches any canonicalized or reordered NaN propagation.
std::vector<double> adversarial_values() {
  return {
      0.0,
      -0.0,
      5e-324,                                        // smallest denormal
      -4.9e-324,
      2.2250738585072014e-308,                       // DBL_MIN
      1e-9,                                          // exactly at the guard
      std::nextafter(1e-9, 0.0),                     // just under
      std::nextafter(1e-9, 1.0),                     // just over
      -1e-9,
      9.9e-10,
      -9.9e-10,
      2e-9,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(std::uint64_t{0x7ff8dead00000000ULL}),  // payload
      std::bit_cast<double>(std::uint64_t{0xfff8000000c0ffeeULL}),  // payload
      1e200,                                         // overflow fodder
      -1e200,
      1e-4,
      -3.75,
      42.0,
  };
}

/// num_params-column dataset cycling through the adversarial values with
/// per-column offsets, so every column hits every edge value at some row.
Dataset adversarial_dataset(std::size_t num_params, std::size_t rows) {
  const std::vector<double> vals = adversarial_values();
  std::vector<std::string> names;
  for (std::size_t d = 0; d < num_params; ++d)
    names.push_back("x" + std::to_string(d));
  Dataset data(std::move(names));
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> params(num_params);
    for (std::size_t d = 0; d < num_params; ++d)
      params[d] = vals[(r + d * 7) % vals.size()];
    data.add_row(std::move(params), {1.0});
  }
  return data;
}

TEST(ExprSimd, OpcodeBySourceBySpostMatrixIsBitIdentical) {
  // Operand kinds as the compiler lowers them: kCol (a bare variable),
  // kLit (a constant), kReg (a non-foldable subexpression's register).
  const Dataset data = adversarial_dataset(3, 45);
  const auto operand = [](int kind, std::size_t var) -> Expr {
    switch (kind) {
      case 0: return Expr::variable(var);                    // Src::kCol
      case 1: return Expr::constant(1.5 + double(var));      // Src::kLit
      default:                                               // Src::kReg
        return Expr::binary(Op::kMul, Expr::variable(var),
                            Expr::constant(0.625));
    }
  };
  const char* kind_name[] = {"col", "lit", "reg"};
  for (const Op op : {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv}) {
    for (int ka = 0; ka < 3; ++ka) {
      for (int kb = 0; kb < 3; ++kb) {
        if (ka == 1 && kb == 1) continue;  // lit-lit folds to a constant
        const Expr base = Expr::binary(op, operand(ka, 0), operand(kb, 1));
        const std::string ctx = std::string("op=") +
                                std::to_string(static_cast<int>(op)) + " a=" +
                                kind_name[ka] + " b=" + kind_name[kb];
        expect_bitwise_match(base, data, ctx + " post=none");
        expect_bitwise_match(Expr::unary(Op::kLog, base.clone()), data,
                             ctx + " post=log");
        expect_bitwise_match(Expr::unary(Op::kSqrt, base.clone()), data,
                             ctx + " post=sqrt");
      }
    }
  }
  // Unary opcodes over column and register operands, plus stacked unaries
  // (whichever fusion the compiler picks must stay bit-identical).
  for (const Op op : {Op::kLog, Op::kSqrt}) {
    for (int ka : {0, 2}) {
      const Expr base = Expr::unary(op, operand(ka, 2));
      expect_bitwise_match(base, data,
                           std::string("unary a=") + kind_name[ka]);
      expect_bitwise_match(Expr::unary(Op::kSqrt, base.clone()), data,
                           "stacked unary sqrt");
      expect_bitwise_match(Expr::unary(Op::kLog, base.clone()), data,
                           "stacked unary log");
    }
  }
}

TEST(ExprSimd, DivisionGuardStraddleAllBackends) {
  const Expr expr =
      Expr::binary(Op::kDiv, Expr::variable(0), Expr::variable(1));
  Dataset data({"num", "den"});
  for (double den :
       {0.0, -0.0, 1e-9, -1e-9, std::nextafter(1e-9, 0.0),
        std::nextafter(1e-9, 1.0), 9.9e-10, -9.9e-10, 2e-9, 1.0,
        std::numeric_limits<double>::quiet_NaN(),  // NaN den is NOT guarded
        std::numeric_limits<double>::infinity()})
    data.add_row({3.5, den}, {1.0});
  data.add_row({std::numeric_limits<double>::quiet_NaN(), 0.0}, {1.0});
  expect_bitwise_match(expr, data, "division guard straddle");
}

TEST(ExprSimd, OutOfRangeVariableReadsZeroAllBackends) {
  // var 9 exceeds the dataset's columns and reads the scratch zeros.
  const Expr expr = Expr::binary(
      Op::kDiv, Expr::binary(Op::kAdd, Expr::variable(9), Expr::variable(0)),
      Expr::variable(9));
  const Dataset data = adversarial_dataset(1, 21);
  expect_bitwise_match(expr, data, "out-of-range variable");
}

TEST(ExprSimd, EdgeRowCountsAllBackends) {
  // Small, odd and multi-hundred row counts; 0 rows must produce an empty
  // output.
  util::Rng rng(987);
  for (const std::size_t rows : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                 std::size_t{4}, std::size_t{5}, std::size_t{8},
                                 std::size_t{63}, std::size_t{64},
                                 std::size_t{65}, std::size_t{1000}}) {
    const Dataset data = adversarial_dataset(2, rows);
    for (int trial = 0; trial < 3; ++trial) {
      const Expr expr = Expr::random(rng, 2, 4);
      if (expr.empty()) continue;
      expect_bitwise_match(
          expr, data,
          "rows=" + std::to_string(rows) + " trial " + std::to_string(trial));
    }
  }
}

TEST(ExprSimd, RandomExpressionsPropertySweep) {
  util::Rng rng(20260808);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t num_params = 1 + rng.uniform_int(4);
    const Dataset data =
        adversarial_dataset(num_params, 11 + rng.uniform_int(70));
    const Expr expr =
        Expr::random(rng, num_params, 2 + static_cast<int>(rng.uniform_int(5)));
    if (expr.empty()) continue;
    expect_bitwise_match(expr, data, "sweep trial " + std::to_string(trial));
  }
}

TEST(ExprSimd, ScratchReusesAcrossShapesAndBackends) {
  // One EvalScratch reused across programs of different register counts
  // and datasets of different widths/rows: stale strip contents or a
  // missed re-zero would break bit identity.
  util::Rng rng(555);
  EvalScratch scratch;
  std::vector<double> out;
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t num_params = 1 + rng.uniform_int(3);
    const Dataset data = adversarial_dataset(num_params, 1 + rng.uniform_int(90));
    const Expr expr =
        Expr::random(rng, num_params, 1 + static_cast<int>(rng.uniform_int(6)));
    if (expr.empty()) continue;
    const ExprProgram prog = ExprProgram::compile(expr);
    prog.eval_dataset(data, out, scratch);
    ASSERT_EQ(out.size(), data.num_rows());
    for (std::size_t r = 0; r < data.num_rows(); ++r)
      ASSERT_TRUE(bits_equal(expr.eval(data.row(r).params), out[r]))
          << "trial " << trial << " row " << r;
  }
}

TEST(Dataset, ColumnsMirrorRowsAndResponsesAreCached) {
  util::Rng rng(3);
  const Dataset data = random_dataset(rng, 3, 20);
  for (std::size_t d = 0; d < data.num_params(); ++d) {
    ASSERT_EQ(data.column(d).size(), data.num_rows());
    for (std::size_t r = 0; r < data.num_rows(); ++r)
      EXPECT_TRUE(bits_equal(data.column(d)[r], data.row(r).params[d]));
  }
  ASSERT_EQ(data.responses().size(), data.num_rows());
  for (std::size_t r = 0; r < data.num_rows(); ++r)
    EXPECT_TRUE(bits_equal(data.responses()[r], data.row(r).mean_response()));
}

TEST(PredictBatch, ExprModelMatchesPerRowPredict) {
  util::Rng rng(17);
  const Dataset data = random_dataset(rng, 2, 32);
  const Expr expr = Expr::binary(
      Op::kAdd, Expr::binary(Op::kMul, Expr::variable(0), Expr::variable(1)),
      Expr::unary(Op::kLog, Expr::variable(0)));
  const ExprModel model(expr.clone(), 2.5, -0.75, {"a", "b"});
  std::vector<double> batch;
  model.predict_batch(data, batch);
  ASSERT_EQ(batch.size(), data.num_rows());
  for (std::size_t r = 0; r < data.num_rows(); ++r)
    EXPECT_TRUE(bits_equal(batch[r], model.predict(data.row(r).params)));
}

TEST(PredictBatch, FeatureModelMatchesPerRowPredict) {
  util::Rng rng(19);
  Dataset data({"a", "b"});
  for (int i = 0; i < 12; ++i)
    data.add_row({rng.uniform(1.0, 50.0), rng.uniform(1.0, 50.0)},
                 {rng.uniform(0.5, 5.0)});
  const FeatureModel model = FeatureModel::fit(
      data, FeatureLibrary::polynomial(2), 1e-9);
  std::vector<double> batch;
  model.predict_batch(data, batch);
  ASSERT_EQ(batch.size(), data.num_rows());
  for (std::size_t r = 0; r < data.num_rows(); ++r)
    EXPECT_TRUE(bits_equal(batch[r], model.predict(data.row(r).params)));
}

/// Run `fit` once per pool worker plus once on the calling thread, all at
/// the same time as tasks of `pool`, and return every result.
std::vector<SymRegResult> fits_in_pool(
    util::TaskPool& pool, const std::function<SymRegResult()>& fit) {
  std::vector<SymRegResult> out(pool.worker_count() + 1);
  util::parallel_for(out.size(), [&](std::size_t i) { out[i] = fit(); }, pool);
  return out;
}

TEST(SymRegParallel, ChampionIsThreadCountInvariant) {
  // The fit is serial; what must hold is that a fit on the main thread and
  // the same fit run concurrently inside pool tasks, at 1 and at 4
  // workers, produce bit-identical champions.
  util::Rng rng(5);
  Dataset data({"a", "b"});
  for (double a : {1.0, 2.0, 3.0, 4.0, 5.0})
    for (double b : {2.0, 4.0, 8.0, 16.0})
      data.add_row({a, b}, {3.0 * a * b + 0.5 * b,
                            3.0 * a * b + 0.5 * b + rng.uniform(0.0, 0.01)});
  util::Rng r1(10), r2(10);
  const auto [tr1, te1] = data.split(0.75, r1);
  const auto [tr2, te2] = data.split(0.75, r2);

  SymRegConfig cfg;
  cfg.population = 96;
  cfg.generations = 25;
  cfg.seed = 42;
  const auto serial = SymbolicRegressor(cfg).fit(tr1, te1);
  ASSERT_TRUE(serial.model);
  for (const unsigned workers : {1u, 4u}) {
    util::TaskPool pool(workers);
    const auto runs =
        fits_in_pool(pool, [&] { return SymbolicRegressor(cfg).fit(tr2, te2); });
    for (const SymRegResult& wide : runs) {
      ASSERT_TRUE(wide.model);
      EXPECT_EQ(serial.model->describe(), wide.model->describe());
      EXPECT_TRUE(bits_equal(serial.train_mape, wide.train_mape));
      EXPECT_TRUE(bits_equal(serial.test_mape, wide.test_mape));
      EXPECT_EQ(serial.generations_run, wide.generations_run);
      EXPECT_EQ(serial.best_history, wide.best_history);
    }
  }
}

TEST(SymRegParallel, SharedPoolDefaultAlsoMatchesSerial) {
  Dataset data({"n"});
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0})
    data.add_row({n}, {n * n + 1.0});
  SymRegConfig cfg;
  cfg.population = 64;
  cfg.generations = 12;
  cfg.seed = 7;
  const auto a = SymbolicRegressor(cfg).fit(data, Dataset({"n"}));
  SymRegResult b;
  util::TaskGroup group;  // shared pool, whatever its width
  group.run([&] { b = SymbolicRegressor(cfg).fit(data, Dataset({"n"})); });
  group.wait();
  EXPECT_EQ(a.model->describe(), b.model->describe());
  EXPECT_TRUE(bits_equal(a.train_mape, b.train_mape));
}

}  // namespace
}  // namespace ftbesst::model
