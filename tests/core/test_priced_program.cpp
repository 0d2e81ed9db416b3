// Pricing contract: for every PerfModel in the library, a draw through
// core::PricedProgram is the model's own sample() (Monte-Carlo) or
// predict() (deterministic), bit for bit, and leaves the generator in the
// same state. This is what lets ensembles and campaigns price a program
// once and stay bit-identical to pricing every trial.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/arch.hpp"
#include "core/beo.hpp"
#include "core/engine_bsp.hpp"
#include "ft/checkpoint_cost.hpp"
#include "model/feature_model.hpp"
#include "model/perf_model.hpp"
#include "model/powerlaw.hpp"
#include "model/symreg.hpp"
#include "model/table_model.hpp"
#include "svc/registry.hpp"
#include "util/rng.hpp"

namespace ftbesst::core {
namespace {

using model::DrawKind;
using model::Interpolation;

struct Case {
  std::string name;
  model::PerfModelPtr model;
  DrawKind kind;
  std::vector<std::vector<double>> points;  ///< two params each
};

/// 2-D positive grid with three noisy samples per point.
model::Dataset grid() {
  model::Dataset d({"a", "b"});
  for (double a : {1.0, 2.0, 4.0})
    for (double b : {8.0, 16.0}) {
      const double y = 0.5 * a * b;
      d.add_row({a, b}, {0.9 * y, y, 1.2 * y});
    }
  return d;
}

std::vector<Case> all_models() {
  const std::vector<std::vector<double>> on_and_off_grid = {
      {2.0, 16.0}, {3.0, 12.0}, {5.0, 20.0}};
  auto base = std::make_shared<model::PowerLawModel>(
      1e-3, std::vector<double>{1.0, 0.5});
  const ft::CheckpointCostModel cost({}, ft::FtiConfig{});
  return {
      {"constant", std::make_shared<model::ConstantModel>(1.5),
       DrawKind::kFixed, on_and_off_grid},
      {"noisy", std::make_shared<model::NoisyModel>(base, 0.2),
       DrawKind::kLognormal, on_and_off_grid},
      {"noisy_sigma0", std::make_shared<model::NoisyModel>(base, 0.0),
       DrawKind::kLognormal, on_and_off_grid},
      {"table_nearest",
       std::make_shared<model::TableModel>(grid(), Interpolation::kNearest),
       DrawKind::kOpaque, on_and_off_grid},
      {"table_multilinear",
       std::make_shared<model::TableModel>(grid(),
                                           Interpolation::kMultilinear),
       DrawKind::kOpaque, on_and_off_grid},
      {"table_loglog",
       std::make_shared<model::TableModel>(grid(), Interpolation::kLogLog),
       DrawKind::kOpaque, on_and_off_grid},
      {"expr",
       std::make_shared<model::ExprModel>(
           model::Expr::from_sexpr("(mul (var 0) (log (var 1)))"), 2.0, 0.1,
           std::vector<std::string>{"a", "b"}),
       DrawKind::kFixed, on_and_off_grid},
      {"feature",
       std::make_shared<model::FeatureModel>(
           model::FeatureModel::fit(grid(),
                                    model::FeatureLibrary::polynomial(2))),
       DrawKind::kFixed, on_and_off_grid},
      {"powerlaw", base, DrawKind::kFixed, on_and_off_grid},
      {"restart_cost",
       std::make_shared<svc::RestartCostModel>("lulesh", ft::Level::kL2,
                                               cost),
       DrawKind::kFixed, {{5.0, 8.0}, {15.0, 64.0}}},
  };
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The table's generator and the reference generator must agree on the
/// next outputs: the table consumed exactly the randomness the model did.
void expect_same_stream(util::Rng& a, util::Rng& b, const std::string& what) {
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a(), b()) << what << " output " << i;
}

/// One program holding the model as a compute kernel and as the restart
/// model of a checkpoint, both at `params`.
struct Bound {
  Bound(const model::PerfModelPtr& m, const std::vector<double>& params)
      : arch("pricing", std::make_shared<net::TwoStageFatTree>(2, 4, 1),
             net::CommParams{}, 2),
        app("pricing", 4) {
    arch.bind_kernel("k", m);
    arch.bind_kernel("ckpt", std::make_shared<model::ConstantModel>(1.0));
    arch.bind_restart(ft::Level::kL2, m);
    app.compute("k", params)
        .allreduce(64)
        .checkpoint(ft::Level::kL2, "ckpt", params)
        .end_timestep();
  }
  ArchBEO arch;
  AppBEO app;
};

TEST(PricingContract, TableDrawEqualsSampleBitForBit) {
  for (const Case& c : all_models()) {
    for (const auto& params : c.points) {
      const Bound b(c.model, params);
      const PricedProgram priced(b.app, b.arch);
      EXPECT_EQ(c.model->price(params).kind, c.kind) << c.name;
      for (std::uint64_t seed : {1u, 7u, 12345u}) {
        const std::string what = c.name + " seed " + std::to_string(seed);
        util::Rng via_table(seed);
        util::Rng via_model = via_table;
        EXPECT_EQ(bits(priced.duration(0, true, via_table)),
                  bits(c.model->sample(params, via_model)))
            << what;
        expect_same_stream(via_table, via_model, what + " (duration)");
        EXPECT_EQ(bits(priced.restart_cost(2, true, via_table)),
                  bits(c.model->sample(params, via_model)))
            << what;
        expect_same_stream(via_table, via_model, what + " (restart)");
      }
    }
  }
}

TEST(PricingContract, DeterministicTableEqualsPredict) {
  for (const Case& c : all_models()) {
    for (const auto& params : c.points) {
      const Bound b(c.model, params);
      const PricedProgram priced(b.app, b.arch);
      util::Rng via_table(3);
      util::Rng untouched = via_table;
      EXPECT_EQ(bits(priced.duration(0, false, via_table)),
                bits(c.model->predict(params)))
          << c.name;
      EXPECT_EQ(bits(priced.restart_cost(2, false, via_table)),
                bits(c.model->predict(params)))
          << c.name;
      EXPECT_EQ(bits(c.model->price(params).median),
                bits(c.model->predict(params)))
          << c.name;
      expect_same_stream(via_table, untouched, c.name);
    }
  }
}

TEST(PricingContract, CommAndMarkersArePricedFixed) {
  const Bound b(std::make_shared<model::ConstantModel>(2.0), {1.0, 1.0});
  const PricedProgram priced(b.app, b.arch);
  util::Rng rng(9);
  util::Rng untouched = rng;
  EXPECT_EQ(bits(priced.duration(1, true, rng)),
            bits(b.arch.comm().allreduce_time(4, 64)));
  EXPECT_EQ(priced.duration(3, true, rng), 0.0);        // timestep marker
  EXPECT_EQ(priced.restart_cost(0, true, rng), 0.0);    // not a checkpoint
  expect_same_stream(rng, untouched, "comm");
}

TEST(PricingContract, NoisySigmaZeroStillConsumesOneNormal) {
  auto base = std::make_shared<model::ConstantModel>(2.0);
  const model::NoisyModel noisy(base, 0.0);
  util::Rng a(5);
  util::Rng b = a;
  EXPECT_EQ(noisy.sample(std::vector<double>{}, a), 2.0);
  (void)b.normal();
  expect_same_stream(a, b, "sigma0");
}

}  // namespace
}  // namespace ftbesst::core
