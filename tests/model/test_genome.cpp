// The flat GP genome against its tree form: every genome the GP operators
// draw converts to an Expr of the same size, depth and values, and the
// fitness memo's compact key is exactly as discriminating as the 17-digit
// S-expression the memo was first keyed by.

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
#include "model/fitness_memo.hpp"
#include "util/rng.hpp"

namespace ftbesst::model {
namespace {

std::string key_of(FitnessMemo& memo, const Genome& g) {
  std::string key;
  memo.append_key(g, key);
  return key;
}

/// True when `a` and `b` land on one memo entry (after both are added).
bool same_entry(const Genome& a, const Genome& b) {
  FitnessMemo memo;
  const auto [first, a_fresh] = memo.find_or_add(a);
  const auto [second, b_fresh] = memo.find_or_add(b);
  EXPECT_TRUE(a_fresh);
  EXPECT_EQ(memo.find_or_add(a), std::make_pair(first, false));
  EXPECT_EQ(memo.find_or_add(b), std::make_pair(second, false));
  EXPECT_EQ(first == second, !b_fresh);
  return first == second;
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
  FitnessMemo memo;
  for (const Genome& g : gp_draws(10000, 2024)) {
    ASSERT_FALSE(g.empty());
    const Expr e = g.to_expr();
    ASSERT_EQ(e.size(), g.size());
    ASSERT_EQ(e.depth(), g.depth());
    // Flattening the tree again gives back the same genes.
    ASSERT_EQ(key_of(memo, Genome(e)), key_of(memo, g));
    ExprProgram::compile_into(g, prog);
    prog.eval_dataset(points, values, scratch);
    for (std::size_t r = 0; r < points.num_rows(); ++r)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(values[r]),
                std::bit_cast<std::uint64_t>(e.eval(points.row(r).params)))
          << e.to_sexpr();
  }
}

TEST(Genome, KeyEqualityIsSexprEquality) {
  // One memo over the seeded draws: two draws share an entry exactly when
  // they share an S-expression, and a new entry is a new text.
  FitnessMemo memo;
  std::unordered_map<std::size_t, std::string> sexpr_of_entry;
  std::unordered_map<std::string, std::size_t> entry_of_sexpr;
  std::size_t repeats = 0;
  std::size_t text_bytes = 0;
  for (const Genome& g : gp_draws(12000, 99)) {
    const auto [entry, fresh] = memo.find_or_add(g);
    const std::string sexpr = g.to_expr().to_sexpr();
    const auto [e, e_new] = sexpr_of_entry.emplace(entry, sexpr);
    const auto [s, s_new] = entry_of_sexpr.emplace(sexpr, entry);
    ASSERT_EQ(e->second, sexpr);
    ASSERT_EQ(s->second, entry);
    ASSERT_EQ(e_new, fresh);
    ASSERT_EQ(s_new, fresh);
    if (fresh)
      text_bytes += sexpr.size();
    else
      ++repeats;
  }
  // The draws re-create earlier individuals often enough that the
  // equality direction is exercised, not only the distinctness one.
  EXPECT_GT(repeats, 100u);
  EXPECT_EQ(memo.size(), entry_of_sexpr.size());
  // Compact: the whole memo, spare capacity included, is smaller than the
  // distinct S-expression texts alone.
  EXPECT_LT(memo.bytes(), text_bytes);
}

TEST(Genome, KeysSeparateSignedZerosAndNeighbouringConstants) {
  const auto scaled = [](double c) {
    return Genome(Expr::binary(Op::kMul, Expr::variable(0), Expr::constant(c)));
  };
  const double one_up = std::nextafter(1.0, 2.0);
  const std::array<std::pair<double, double>, 3> pairs{
      {{0.0, -0.0}, {1.0, one_up}, {3.5e-6, std::nextafter(3.5e-6, 0.0)}}};
  for (const auto& [a, b] : pairs) {
    EXPECT_FALSE(same_entry(scaled(a), scaled(b)));
    EXPECT_NE(scaled(a).to_expr().to_sexpr(), scaled(b).to_expr().to_sexpr());
    EXPECT_TRUE(same_entry(scaled(a), scaled(a)));
  }
  // A constant and a variable never share a key, whatever their payloads:
  // constant id 0 and variable index 0 both encode as the byte 0.
  EXPECT_FALSE(same_entry(Genome(Expr::constant(0.0)),
                          Genome(Expr::variable(0))));
  // A memo that interned -0.0 first still tells +0.0 apart from it.
  FitnessMemo memo;
  (void)memo.find_or_add(scaled(-0.0));
  EXPECT_TRUE(memo.find_or_add(scaled(0.0)).second);
  EXPECT_EQ(memo.find_or_add(scaled(-0.0)),
            std::make_pair(std::size_t{0}, false));
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
  EXPECT_FALSE(same_entry(a, b));
  EXPECT_TRUE(same_entry(a, Genome(Expr::constant(quiet))));
}

TEST(Genome, MultiByteVariableIndicesKeyExactly) {
  // Indices from 128 up take two or three varint bytes; none may collide
  // with a shorter index or spill into the next gene.
  const std::array<std::size_t, 8> indices{0, 1, 127, 128, 255, 16383, 16384,
                                           65535};
  FitnessMemo memo;
  EXPECT_EQ(key_of(memo, Genome(Expr::variable(127))).size(), 2u);
  EXPECT_EQ(key_of(memo, Genome(Expr::variable(128))).size(), 3u);
  EXPECT_EQ(key_of(memo, Genome(Expr::variable(16384))).size(), 4u);
  for (const std::size_t a : indices)
    for (const std::size_t b : indices) {
      const Genome single_a(Expr::variable(a));
      const Genome single_b(Expr::variable(b));
      EXPECT_EQ(same_entry(single_a, single_b), a == b) << a << " " << b;
      const Genome sum(
          Expr::binary(Op::kAdd, Expr::variable(a), Expr::variable(b)));
      const Genome swapped(
          Expr::binary(Op::kAdd, Expr::variable(b), Expr::variable(a)));
      EXPECT_EQ(same_entry(sum, swapped), a == b) << a << " " << b;
    }
  // All 64 ordered differences in one memo: one entry each.
  for (const std::size_t a : indices)
    for (const std::size_t b : indices)
      EXPECT_TRUE(memo.find_or_add(Genome(Expr::binary(
                                       Op::kSub, Expr::variable(a),
                                       Expr::variable(b))))
                      .second);
  EXPECT_EQ(memo.size(), indices.size() * indices.size());
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
  // The empty key is a key like any other.
  EXPECT_TRUE(same_entry(empty, Genome(Expr())));
  EXPECT_FALSE(same_entry(empty, Genome(Expr::constant(0.0))));
}

}  // namespace
}  // namespace ftbesst::model
