#include "svc/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/kernels.hpp"
#include "apps/lulesh.hpp"
#include "apps/stencil3d.hpp"
#include "core/arch.hpp"
#include "ft/checkpoint_cost.hpp"
#include "model/perf_model.hpp"
#include "model/symreg.hpp"
#include "net/topology.hpp"
#include "svc/json.hpp"

namespace ftbesst::svc {
namespace {

/// Registry over hand-built analytic models: instant to construct, fully
/// deterministic, enough structure for every op to exercise the engines.
Registry make_test_registry() {
  auto topo = std::make_shared<net::TwoStageFatTree>(4, 4, 2);
  auto arch =
      std::make_shared<core::ArchBEO>("test", topo, net::CommParams{}, 4);
  arch->bind_kernel(apps::kLuleshTimestep,
                    std::make_shared<model::ConstantModel>(0.01));
  arch->bind_kernel(apps::kStencilSweep,
                    std::make_shared<model::ConstantModel>(0.005));
  for (int level = 1; level <= 4; ++level)
    arch->bind_kernel(
        apps::checkpoint_kernel(static_cast<ft::Level>(level)),
        std::make_shared<model::ConstantModel>(0.002 * level));
  return Registry{std::move(arch)};
}

TEST(CanonicalKey, IgnoresSpellingAndVolatileFields) {
  const Json a = Json::parse(
      "{\"op\":\"simulate\",\"trials\":20,\"seed\":7,\"deadline_ms\":100}");
  const Json b = Json::parse(
      "{\"seed\":7.0,\"id\":\"req-123\",\"trials\":2e1,\"op\":\"simulate\"}");
  EXPECT_EQ(canonical_key(a), canonical_key(b));
  const Json c = Json::parse("{\"op\":\"simulate\",\"trials\":21,\"seed\":7}");
  EXPECT_NE(canonical_key(a), canonical_key(c));
  // Results are bit-identical at any thread count, so `threads` is
  // volatile too.
  const Json d = Json::parse(
      "{\"op\":\"simulate\",\"trials\":20,\"seed\":7,\"threads\":1}");
  EXPECT_EQ(canonical_key(a), canonical_key(d));
  EXPECT_THROW((void)canonical_key(Json::parse("[1]")), std::invalid_argument);
}

TEST(Registry, PredictEvaluatesBoundModels) {
  const Registry registry = make_test_registry();
  const Json result = handle_request(
      registry, Json::parse("{\"op\":\"predict\",\"kernel\":\"" +
                            std::string(apps::kLuleshTimestep) +
                            "\",\"params\":[15,64]}"));
  EXPECT_DOUBLE_EQ(result.find("value")->as_number(), 0.01);
  EXPECT_FALSE(result.find("model")->as_string().empty());
}

TEST(Registry, PredictRejectsUnknownKernelsAndMissingFields) {
  const Registry registry = make_test_registry();
  EXPECT_THROW(
      (void)handle_request(registry, Json::parse("{\"op\":\"predict\"}")),
      std::invalid_argument);
  EXPECT_THROW((void)handle_request(
                   registry, Json::parse("{\"op\":\"predict\",\"kernel\":"
                                         "\"nope\",\"params\":[1]}")),
               std::invalid_argument);
}

TEST(Registry, PredictBatchPointsMatchPerPointPredict) {
  // The "points" batch form routes through PerfModel::predict_batch
  // (ExprProgram::eval_dataset for expression models) and must agree
  // bit-for-bit with one predict call per point.
  auto topo = std::make_shared<net::TwoStageFatTree>(4, 4, 2);
  auto arch =
      std::make_shared<core::ArchBEO>("test", topo, net::CommParams{}, 4);
  const model::Expr expr = model::Expr::binary(
      model::Op::kAdd,
      model::Expr::binary(model::Op::kMul, model::Expr::variable(0),
                          model::Expr::variable(1)),
      model::Expr::unary(model::Op::kSqrt, model::Expr::variable(0)));
  arch->bind_kernel(
      "expr.kernel",
      std::make_shared<model::ExprModel>(expr.clone(), 1.5, 0.25,
                                         std::vector<std::string>{"a", "b"}));
  const Registry registry{std::move(arch)};
  const Json batch = handle_request(
      registry,
      Json::parse("{\"op\":\"predict\",\"kernel\":\"expr.kernel\","
                  "\"points\":[[15,64],[0,0],[3.5,1e-10],[56,1048576]]}"));
  const auto& values = batch.find("values")->as_array();
  ASSERT_EQ(values.size(), 4u);
  const char* points[] = {"[15,64]", "[0,0]", "[3.5,1e-10]", "[56,1048576]"};
  for (std::size_t i = 0; i < 4; ++i) {
    const Json single = handle_request(
        registry,
        Json::parse("{\"op\":\"predict\",\"kernel\":\"expr.kernel\","
                    "\"params\":" + std::string(points[i]) + "}"));
    EXPECT_EQ(values[i].as_number(), single.find("value")->as_number())
        << "point " << points[i];
  }
  EXPECT_EQ(batch.find("backend")->as_string(), "scalar");
}

TEST(Registry, PredictBatchRejectsMalformedPoints) {
  const Registry registry = make_test_registry();
  const std::string kernel(apps::kLuleshTimestep);
  // params and points together, empty points, ragged arity, empty point.
  for (const char* bad :
       {"\"params\":[1,2],\"points\":[[1,2]]", "\"points\":[]",
        "\"points\":[[1,2],[1]]", "\"points\":[[]]"}) {
    EXPECT_THROW(
        (void)handle_request(
            registry, Json::parse("{\"op\":\"predict\",\"kernel\":\"" + kernel +
                                  "\"," + bad + "}")),
        std::invalid_argument)
        << bad;
  }
}

TEST(Registry, SimulateIsDeterministicForAFixedSeed) {
  const Registry registry = make_test_registry();
  const Json request = Json::parse(
      "{\"op\":\"simulate\",\"app\":\"lulesh\",\"epr\":10,\"ranks\":64,"
      "\"timesteps\":50,\"plan\":\"L1:10,L4:25\",\"trials\":10,\"seed\":5}");
  const Json a = handle_request(registry, request);
  const Json b = handle_request(registry, request);
  EXPECT_EQ(a.dump(), b.dump());
  EXPECT_EQ(a.find("trials")->as_number(), 10);
  EXPECT_GT(a.find("mean")->as_number(), 0.0);
}

TEST(Registry, SimulateWithFaultsUsesAPrivateArchCopy) {
  const Registry registry = make_test_registry();
  const Json request = Json::parse(
      "{\"op\":\"simulate\",\"app\":\"lulesh\",\"epr\":10,\"ranks\":64,"
      "\"timesteps\":200,\"plan\":\"L1:20\",\"trials\":20,\"seed\":5,"
      "\"mtbf_hours\":0.05,\"downtime\":1}");
  const Json faulty = handle_request(registry, request);
  EXPECT_GT(faulty.find("mean_faults")->as_number(), 0.0);
  // The registry's shared arch must be untouched: the same no-fault
  // request gives identical results before and after the faulty one.
  const Json clean_request = Json::parse(
      "{\"op\":\"simulate\",\"app\":\"lulesh\",\"epr\":10,\"ranks\":64,"
      "\"timesteps\":50,\"plan\":\"\",\"trials\":5,\"seed\":5}");
  const std::string before = handle_request(registry, clean_request).dump();
  (void)handle_request(registry, request);
  EXPECT_EQ(handle_request(registry, clean_request).dump(), before);
}

TEST(Registry, SimulateSupportsStencil) {
  const Registry registry = make_test_registry();
  const Json result = handle_request(
      registry,
      Json::parse("{\"op\":\"simulate\",\"app\":\"stencil3d\",\"nx\":16,"
                  "\"ranks\":8,\"timesteps\":20,\"trials\":5}"));
  EXPECT_GT(result.find("mean")->as_number(), 0.0);
}

TEST(Registry, SimulateRejectsBadInputs) {
  const Registry registry = make_test_registry();
  for (const char* bad : {
           "{\"op\":\"simulate\",\"app\":\"fortnite\"}",
           "{\"op\":\"simulate\",\"trials\":0}",
           "{\"op\":\"simulate\",\"trials\":1000000}",
           "{\"op\":\"simulate\",\"timesteps\":0}",
           "{\"op\":\"simulate\",\"plan\":\"L7:10\"}",
           "{\"op\":\"simulate\",\"plan\":\"L1:10,L1:20\"}",
           "{\"op\":\"simulate\",\"ranks\":63}",     // not a cube
           "{\"op\":\"simulate\",\"ranks\":64.5}",   // not an integer
           "{\"op\":\"simulate\",\"mtbf_hours\":-1}",
           "{\"op\":\"bogus\"}",
       }) {
    EXPECT_THROW((void)handle_request(registry, Json::parse(bad)),
                 std::invalid_argument)
        << bad;
  }
}

TEST(Registry, InjectCampaignIsDeterministicForAFixedSeed) {
  const Registry registry = make_test_registry();
  const Json request = Json::parse(
      "{\"op\":\"inject\",\"app\":\"lulesh\",\"epr\":10,\"ranks\":64,"
      "\"timesteps\":50,\"plan\":\"L1:10\",\"trials\":6,\"seed\":5,"
      "\"mtbf_hours\":0.02,\"downtime\":1}");
  const Json a = handle_request(registry, request);
  const Json b = handle_request(registry, request);
  EXPECT_EQ(a.dump(), b.dump());
  EXPECT_EQ(a.find("trials")->as_number(), 6);
  EXPECT_GT(a.find("mean")->as_number(), 0.0);
  EXPECT_GT(a.find("mean_faults")->as_number(), 0.0);
  EXPECT_EQ(a.find("mean_recoveries_by_level")->as_array().size(), 4u);
  // Campaign records every fault the trials saw.
  EXPECT_GT(a.find("fault_records")->as_number(), 0.0);
}

TEST(Registry, InjectRejectsFaultFreeRequests) {
  const Registry registry = make_test_registry();
  // Without mtbf_hours there is no fault process to inject from.
  EXPECT_THROW(
      (void)handle_request(
          registry, Json::parse("{\"op\":\"inject\",\"app\":\"lulesh\","
                                "\"epr\":10,\"ranks\":64,\"trials\":2}")),
      std::invalid_argument);
}

TEST(Registry, DseSweepsScenariosTimesPoints) {
  const Registry registry = make_test_registry();
  const Json result = handle_request(
      registry,
      Json::parse(
          "{\"op\":\"dse\",\"app\":\"lulesh\",\"scenarios\":"
          "[{\"name\":\"No FT\",\"plan\":\"\"},{\"name\":\"L1\",\"plan\":"
          "\"L1:10\"}],\"eprs\":[5,10],\"ranks\":[8,64],\"timesteps\":20,"
          "\"trials\":4,\"seed\":11}"));
  EXPECT_EQ(result.find("points")->as_array().size(), 2u * 4u);
  EXPECT_EQ(result.find("scenarios")->as_number(), 2);
  for (const Json& cell : result.find("points")->as_array()) {
    EXPECT_FALSE(cell.find("scenario")->as_string().empty());
    EXPECT_EQ(cell.find("params")->as_array().size(), 2u);
    EXPECT_GT(cell.find("ensemble")->find("mean")->as_number(), 0.0);
  }
}

TEST(Registry, DseAcceptsExplicitPointsAndRejectsBadOnes) {
  const Registry registry = make_test_registry();
  const Json result = handle_request(
      registry,
      Json::parse("{\"op\":\"dse\",\"scenarios\":[{\"name\":\"s\",\"plan\":"
                  "\"\"}],\"points\":[[5,8],[10,64]],\"timesteps\":10,"
                  "\"trials\":2}"));
  EXPECT_EQ(result.find("points")->as_array().size(), 2u);

  for (const char* bad : {
           "{\"op\":\"dse\",\"scenarios\":[]}",
           "{\"op\":\"dse\",\"scenarios\":[{\"plan\":\"\"}],\"points\":"
           "[[5,8]]}",
           "{\"op\":\"dse\",\"scenarios\":[{\"name\":\"s\"}],\"points\":[]}",
           "{\"op\":\"dse\",\"scenarios\":[{\"name\":\"s\"}],\"points\":"
           "[[5]]}",
           "{\"op\":\"dse\",\"scenarios\":[{\"name\":\"s\"}],\"points\":"
           "[[5,63]]}",
       }) {
    EXPECT_THROW((void)handle_request(registry, Json::parse(bad)),
                 std::invalid_argument)
        << bad;
  }
}

TEST(Registry, RestartCostTracksEachCheckpointsSizeAndRanks) {
  const ft::CheckpointCostModel cost({}, ft::FtiConfig{});
  const RestartCostModel model("lulesh", ft::Level::kL1, cost);
  // The engine hands the model the recovering checkpoint's own
  // {size, ranks} params, so a sweep over mixed sizes gets a per-point
  // restart cost — bigger problems restore more bytes — and the values
  // match the cost model the CLI paths bind per configuration.
  const double small = model.predict(std::vector<double>{5.0, 8.0});
  const double big = model.predict(std::vector<double>{15.0, 8.0});
  EXPECT_LT(small, big);
  EXPECT_DOUBLE_EQ(big, cost.restart_cost(ft::Level::kL1,
                                          apps::lulesh_checkpoint_bytes(15),
                                          8));
  EXPECT_THROW((void)model.predict(std::vector<double>{5.0}),
               std::invalid_argument);
}

TEST(Registry, DseWithFaultsHandlesMixedSizePoints) {
  // A faulty sweep over points with different sizes/ranks must run each
  // point against its own restart costs (a single constant bound from the
  // first point would misprice every other point) and stay deterministic.
  const Registry registry = make_test_registry();
  const Json request = Json::parse(
      "{\"op\":\"dse\",\"scenarios\":[{\"name\":\"L1\",\"plan\":\"L1:10\"}],"
      "\"points\":[[5,8],[15,64]],\"timesteps\":60,\"trials\":8,\"seed\":3,"
      "\"mtbf_hours\":0.05,\"downtime\":1}");
  const Json result = handle_request(registry, request);
  EXPECT_EQ(result.find("points")->as_array().size(), 2u);
  for (const Json& cell : result.find("points")->as_array())
    EXPECT_GT(cell.find("ensemble")->find("mean")->as_number(), 0.0);
  EXPECT_EQ(handle_request(registry, request).dump(), result.dump());
}

TEST(Registry, DseIsDeterministicForAFixedSeed) {
  const Registry registry = make_test_registry();
  const Json request = Json::parse(
      "{\"op\":\"dse\",\"scenarios\":[{\"name\":\"a\",\"plan\":\"L1:10\"},"
      "{\"name\":\"b\",\"plan\":\"L4:20\"}],\"eprs\":[5,10,15],\"ranks\":"
      "[8,64],\"timesteps\":20,\"trials\":6,\"seed\":99,\"mtbf_hours\":0.1}");
  EXPECT_EQ(handle_request(registry, request).dump(),
            handle_request(registry, request).dump());
}

TEST(Registry, DseTopKRanksByObjectiveThreadIdentically) {
  const Registry registry = make_test_registry();
  const std::string body =
      "\"app\":\"lulesh\",\"scenarios\":[{\"name\":\"No FT\",\"plan\":\"\"},"
      "{\"name\":\"L1\",\"plan\":\"L1:10\"}],\"eprs\":[5,10,15],\"ranks\":"
      "[8,64],\"timesteps\":20,\"trials\":4,\"seed\":11";

  // Full sweep, then the filtered request: top_k must ship exactly the
  // k cheapest cells of the full sweep, in rank order.
  const Json full = handle_request(
      registry, Json::parse("{\"op\":\"dse\"," + body + "}"));
  std::vector<std::pair<double, std::size_t>> ranked;
  const auto& cells = full.find("points")->as_array();
  for (std::size_t i = 0; i < cells.size(); ++i)
    ranked.emplace_back(cells[i].find("ensemble")->find("mean")->as_number(),
                        i);
  std::sort(ranked.begin(), ranked.end());

  const Json top = handle_request(
      registry,
      Json::parse("{\"op\":\"dse\"," + body +
                  ",\"top_k\":3,\"objective\":\"mean\"}"));
  const auto& best = top.find("points")->as_array();
  ASSERT_EQ(best.size(), 3u);
  EXPECT_EQ(top.find("top_k")->as_number(), 3);
  EXPECT_EQ(top.find("objective")->as_string(), "mean");
  for (std::size_t i = 0; i < best.size(); ++i)
    EXPECT_EQ(best[i].dump(), cells[ranked[i].second].dump());

  // Byte-identical serial vs pooled — the ranking's grid-order tie-break
  // makes the filter independent of evaluation order.
  const Json serial = handle_request(
      registry, Json::parse("{\"op\":\"dse\"," + body +
                            ",\"top_k\":3,\"threads\":1}"));
  const Json pooled = handle_request(
      registry, Json::parse("{\"op\":\"dse\"," + body +
                            ",\"top_k\":3,\"threads\":0}"));
  EXPECT_EQ(serial.dump(), pooled.dump());
  EXPECT_EQ(serial.dump(), top.dump());

  EXPECT_THROW(
      (void)handle_request(
          registry, Json::parse("{\"op\":\"dse\"," + body +
                                ",\"top_k\":3,\"objective\":\"best\"}")),
      std::invalid_argument);
}

TEST(Registry, SearchWarmStartsFromCachedDseCells) {
  const Registry registry = make_test_registry();
  std::map<std::string, std::shared_ptr<const std::string>> store;
  CacheHooks hooks;
  hooks.get = [&store](const std::string& key)
      -> std::shared_ptr<const std::string> {
    const auto it = store.find(key);
    return it == store.end() ? nullptr : it->second;
  };
  hooks.put = [&store](const std::string& key,
                       std::shared_ptr<const std::string> value) {
    store[key] = std::move(value);
  };

  const std::string body =
      "\"app\":\"lulesh\",\"scenarios\":[{\"name\":\"No FT\",\"plan\":\"\"},"
      "{\"name\":\"L1\",\"plan\":\"L1:10\"}],\"eprs\":[5,10,15],\"ranks\":"
      "[8,64],\"timesteps\":20,\"trials\":4,\"seed\":11";
  const Json request = Json::parse("{\"op\":\"search\"," + body +
                                   ",\"method\":\"gp\",\"budget_fraction\":"
                                   "1.0}");

  // Cold run at full budget: prices every cell, fills the cache with one
  // single-cell dse entry per cell, and its best is the true grid minimum.
  const Json cold = handle_request(registry, request, hooks);
  const std::size_t cell_count =
      static_cast<std::size_t>(cold.find("cells")->as_number());
  ASSERT_EQ(cell_count, 12u);
  EXPECT_EQ(cold.find("evaluations")->as_number(), 12);
  EXPECT_EQ(cold.find("warm_hits")->as_number(), 0);
  EXPECT_EQ(store.size(), cell_count);

  const Json full = handle_request(
      registry, Json::parse("{\"op\":\"dse\"," + body + "}"));
  double grid_min = std::numeric_limits<double>::infinity();
  for (const Json& cell : full.find("points")->as_array())
    grid_min = std::min(grid_min,
                        cell.find("ensemble")->find("mean")->as_number());
  EXPECT_EQ(cold.find("best")->find("objective")->as_number(), grid_min);

  // Warm rerun: every cell hits the cache, nothing is re-simulated, and
  // the answer is byte-identical.
  const Json warm = handle_request(registry, request, hooks);
  EXPECT_EQ(warm.find("warm_hits")->as_number(),
            static_cast<double>(cell_count));
  EXPECT_EQ(warm.find("evaluations")->as_number(), 0);
  EXPECT_EQ(warm.find("best")->dump(), cold.find("best")->dump());

  // The cached cells are plain single-cell dse responses: a dse client
  // asking for one cell hits the same entry.
  const Json one_cell = Json::parse(
      "{\"op\":\"dse\",\"app\":\"lulesh\",\"timesteps\":20,\"trials\":4,"
      "\"mtbf_hours\":0,\"downtime\":10,\"seed\":" +
      std::to_string(11 + 0x9e37 * 0) +
      ",\"scenarios\":[{\"name\":\"No FT\",\"plan\":\"\"}],\"points\":"
      "[[5,8]]}");
  EXPECT_NE(store.find(canonical_key(one_cell)), store.end());
}

TEST(Registry, OpenRejectsMissingModelsDir) {
  RegistryOptions options;
  options.models_dir = "/nonexistent/path";
  EXPECT_THROW((void)Registry::open(options), std::invalid_argument);
}

}  // namespace
}  // namespace ftbesst::svc
