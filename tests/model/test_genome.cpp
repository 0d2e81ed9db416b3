// The flat GP genome against its tree form: every genome the GP operators
// draw converts to an Expr of the same size, depth and values, and the
// byte memo key is exactly as discriminating as the 17-digit S-expression
// it replaced.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/dataset.hpp"
#include "model/expr.hpp"
#include "model/expr_program.hpp"
#include "util/rng.hpp"

namespace ftbesst::model {
namespace {

std::string key_of(const Genome& g) {
  std::string key;
  g.key(key);
  return key;
}

/// Seeded stream of GP draws: fresh random genomes, crossovers and
/// mutations of earlier draws, with the regressor's depth and node limits.
std::vector<Genome> gp_draws(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  constexpr std::size_t kVars = 3;
  std::vector<Genome> draws;
  draws.reserve(count);
  while (draws.size() < count) {
    const double roll = rng.uniform();
    if (draws.size() < 8 || roll < 0.2) {
      draws.push_back(Genome::random(rng, kVars, 5));
    } else if (roll < 0.6) {
      const Genome& a = draws[rng.uniform_int(draws.size())];
      const Genome& b = draws[rng.uniform_int(draws.size())];
      draws.push_back(Genome::crossover(a, b, rng, 48));
    } else {
      const Genome& g = draws[rng.uniform_int(draws.size())];
      draws.push_back(Genome::mutate(g, rng, kVars, 5, 48));
    }
  }
  return draws;
}

TEST(Genome, GpDrawsAgreeWithTheirTrees) {
  Dataset points({"a", "b", "c"});
  points.add_row({3.0, 5.0, 7.0}, {1.0});
  points.add_row({0.0, -2.5, 1e-10}, {1.0});
  points.add_row({1e300, 1e-300, 4.0}, {1.0});
  points.add_row({-1.0, 64.0, 1000.0}, {1.0});
  ExprProgram prog;
  std::vector<double> values;
  EvalScratch scratch;
  for (const Genome& g : gp_draws(10000, 2024)) {
    ASSERT_FALSE(g.empty());
    const Expr e = g.to_expr();
    ASSERT_EQ(e.size(), g.size());
    ASSERT_EQ(e.depth(), g.depth());
    // Flattening the tree again gives back the same genes.
    ASSERT_EQ(key_of(Genome(e)), key_of(g));
    ExprProgram::compile_into(g, prog);
    prog.eval_dataset(points, values, scratch);
    for (std::size_t r = 0; r < points.num_rows(); ++r)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(values[r]),
                std::bit_cast<std::uint64_t>(e.eval(points.row(r).params)))
          << e.to_sexpr();
  }
}

TEST(Genome, KeyEqualityIsSexprEquality) {
  std::unordered_map<std::string, std::string> sexpr_of_key;
  std::unordered_map<std::string, std::string> key_of_sexpr;
  std::size_t repeats = 0;
  for (const Genome& g : gp_draws(12000, 99)) {
    const std::string key = key_of(g);
    const std::string sexpr = g.to_expr().to_sexpr();
    const auto [k, k_new] = sexpr_of_key.emplace(key, sexpr);
    const auto [s, s_new] = key_of_sexpr.emplace(sexpr, key);
    ASSERT_EQ(k->second, sexpr);
    ASSERT_EQ(s->second, key);
    ASSERT_EQ(k_new, s_new);
    if (!k_new) ++repeats;
  }
  // The draws re-create earlier individuals often enough that the
  // equality direction is exercised, not only the distinctness one.
  EXPECT_GT(repeats, 100u);
}

TEST(Genome, KeysSeparateSignedZerosAndNeighbouringConstants) {
  const auto scaled = [](double c) {
    return Genome(Expr::binary(Op::kMul, Expr::variable(0), Expr::constant(c)));
  };
  const double one_up = std::nextafter(1.0, 2.0);
  const std::array<std::pair<double, double>, 3> pairs{
      {{0.0, -0.0}, {1.0, one_up}, {3.5e-6, std::nextafter(3.5e-6, 0.0)}}};
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(key_of(scaled(a)), key_of(scaled(b)));
    EXPECT_NE(scaled(a).to_expr().to_sexpr(), scaled(b).to_expr().to_sexpr());
    EXPECT_EQ(key_of(scaled(a)), key_of(scaled(a)));
  }
  // A constant and a variable never share a key, whatever their payloads.
  EXPECT_NE(key_of(Genome(Expr::constant(0.0))),
            key_of(Genome(Expr::variable(0))));
}

TEST(Genome, NanConstantsKeyByTheirBits) {
  // The S-expression spells every NaN "nan"; the key keeps the payload.
  // No GP operator produces a NaN constant, so fits are unaffected.
  const double quiet = std::numeric_limits<double>::quiet_NaN();
  const double other = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(quiet) | std::uint64_t{1});
  const Genome a(Expr::constant(quiet));
  const Genome b(Expr::constant(other));
  EXPECT_EQ(a.to_expr().to_sexpr(), b.to_expr().to_sexpr());
  EXPECT_NE(key_of(a), key_of(b));
}

TEST(Genome, FlattenRejectsVariablesBeyondTheBytecode) {
  EXPECT_THROW((void)Genome(Expr::variable(70000)), std::length_error);
  EXPECT_THROW((void)ExprProgram::compile(Expr::variable(70000)),
               std::length_error);
  EXPECT_NO_THROW((void)Genome(Expr::variable(65535)));
}

TEST(Genome, EmptyGenomeRoundTrips) {
  const Genome empty;
  EXPECT_TRUE(empty.to_expr().empty());
  EXPECT_EQ(empty.depth(), 0);
  EXPECT_TRUE(ExprProgram::compile(empty).empty());
  EXPECT_TRUE(Genome(Expr()).empty());
}

}  // namespace
}  // namespace ftbesst::model
