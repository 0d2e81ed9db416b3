// End-to-end observability: a real LULESH_FTI run through the DES engine
// plus a symbolic-regression fit must populate the DES, task-pool, and
// symreg metrics in one scrape; spans must cover the instrumented regions;
// and --obs-out's directory writer must emit the three artifacts with
// well-formed contents.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/kernels.hpp"
#include "apps/lulesh.hpp"
#include "core/arch.hpp"
#include "core/engine_des.hpp"
#include "model/symreg.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace ftbesst {
namespace {

class ObsPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::enable(true);
    obs::reset();
    obs::trace_reset();
  }
  void TearDown() override {
    obs::enable(false);
    obs::reset();
    obs::trace_reset();
  }
};

ft::FtiConfig fti_cfg() {
  ft::FtiConfig fti;
  fti.group_size = 4;
  fti.node_size = 2;
  return fti;
}

/// 8-node fat-tree, 2 ranks per node -> 16-rank machine; LULESH on 8 ranks
/// (a perfect cube) with L1 checkpoints every 5 timesteps.
core::ArchBEO make_lulesh_arch() {
  auto topo = std::make_shared<net::TwoStageFatTree>(2, 4, 1);
  core::ArchBEO arch("testmachine", topo, net::CommParams{}, 2);
  arch.set_fti(fti_cfg());
  arch.bind_kernel(apps::kLuleshTimestep,
                   std::make_shared<model::ConstantModel>(0.02));
  arch.bind_kernel(apps::checkpoint_kernel(ft::Level::kL1),
                   std::make_shared<model::ConstantModel>(0.1));
  return arch;
}

core::AppBEO make_lulesh_app() {
  apps::LuleshConfig cfg;
  cfg.epr = 5;
  cfg.ranks = 8;
  cfg.timesteps = 20;
  cfg.plan = {{ft::Level::kL1, 5}};
  cfg.fti = fti_cfg();
  return apps::build_lulesh_fti(cfg);
}

model::SymRegResult run_small_symreg_fit() {
  util::Rng rng(21);
  model::Dataset d({"a", "b"});
  for (double a : {1.0, 2.0, 3.0})
    for (double b : {2.0, 4.0, 8.0}) {
      // Noisy targets so the fit cannot hit the early-stop MAPE target in
      // generation zero and actually exercises the evolutionary loop.
      std::vector<double> samples;
      for (int s = 0; s < 3; ++s)
        samples.push_back(rng.lognormal_median(a * b + 0.3 * a * a, 0.1));
      d.add_row({a, b}, std::move(samples));
    }
  util::Rng split_rng(5);
  const auto [train, test] = d.split(0.7, split_rng);
  model::SymRegConfig cfg;
  cfg.population = 64;
  cfg.generations = 8;
  cfg.seed = 13;
  return model::SymbolicRegressor(cfg).fit(train, test);
}

/// The same fit, run as a task of `pool`.
model::SymRegResult run_small_symreg_fit_in(util::TaskPool& pool) {
  model::SymRegResult res;
  util::TaskGroup group(pool);
  group.run([&res] { res = run_small_symreg_fit(); });
  group.wait();
  return res;
}

TEST_F(ObsPipelineTest, LuleshDesRunPopulatesDesAndSimMetrics) {
  const core::ArchBEO arch = make_lulesh_arch();
  const core::AppBEO app = make_lulesh_app();
  const core::RunResult result = core::run_des(app, arch);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.total_seconds, 0.0);

  const auto snap = obs::scrape();
  EXPECT_EQ(snap.counter("des.runs"), 1u);
  EXPECT_GT(snap.counter("des.events"), 0u);
  EXPECT_GT(snap.counter("sim.events"), 0u);
  // The DES heap held at least one pending event at its high-water mark.
  EXPECT_GE(snap.gauge("des.heap_high_water"), 1.0);
  EXPECT_GE(snap.gauge("sim.heap_high_water"), 1.0);
  // Per-component busy time was folded in under a digit-stripped name
  // (rank0..rank7 share one "rank" counter).
  bool saw_busy = false;
  for (const auto& [name, value] : snap.counters)
    if (name.rfind("sim.busy_ns.", 0) == 0 && value > 0) saw_busy = true;
  EXPECT_TRUE(saw_busy);

  // The run is bracketed by a core.run_des span.
  const auto trace = obs::collect_spans();
  bool saw_span = false;
  for (const auto& rec : trace.spans)
    if (rec.name && std::string("core.run_des") == rec.name) saw_span = true;
  EXPECT_TRUE(saw_span);
}

TEST_F(ObsPipelineTest, SymRegFitPopulatesSymregAndPoolMetrics) {
  // A fit on the main thread, then the same fit inside a task on an
  // explicit 4-worker pool (on a 1-core machine the shared pool has a
  // single worker). The fit itself is serial, so the two champions must
  // be bit-identical, and the metrics of the pooled fit must arrive from
  // whichever thread ran it.
  const auto on_main = run_small_symreg_fit();
  obs::reset();
  util::TaskPool pool(4);
  const auto res = run_small_symreg_fit_in(pool);
  ASSERT_TRUE(res.model);
  ASSERT_TRUE(on_main.model);
  EXPECT_EQ(res.model->describe(), on_main.model->describe());
  EXPECT_EQ(std::memcmp(&res.train_mape, &on_main.train_mape, sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&res.test_mape, &on_main.test_mape, sizeof(double)),
            0);

  const auto snap = obs::scrape();
  // One generation counter tick per evolutionary iteration (early stop may
  // leave it short of the configured 8; generations_run tracks only the
  // champion's generation, so best_history is the ground truth).
  EXPECT_EQ(snap.counter("symreg.generations"), res.best_history.size());
  EXPECT_GT(snap.counter("symreg.evals"), 0u);
  // The fit's task was counted by the pool (in run_task, so a task the
  // waiting thread helped with is covered too).
  EXPECT_GT(snap.counter("pool.tasks"), 0u);
  const auto* fitness = snap.histogram("symreg.best_fitness");
  ASSERT_NE(fitness, nullptr);
  EXPECT_EQ(fitness->count, res.best_history.size());

  const auto trace = obs::collect_spans();
  bool saw_span = false;
  for (const auto& rec : trace.spans)
    if (rec.name && std::string("model.symreg_fit") == rec.name)
      saw_span = true;
  EXPECT_TRUE(saw_span);
}

TEST_F(ObsPipelineTest, WriteOutputDirEmitsValidArtifacts) {
  // Full workload first, so the artifacts carry real content: a DES run
  // and a fit run as a pool task (the pool counters).
  const core::ArchBEO arch = make_lulesh_arch();
  (void)core::run_des(make_lulesh_app(), arch);
  util::TaskPool pool(2);
  (void)run_small_symreg_fit_in(pool);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ftbesst_obs_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(obs::write_output_dir(dir.string()));

  auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in(p);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };

  const util::JsonObject metrics =
      util::Json::parse(slurp(dir / "metrics.json")).as_object();
  const util::JsonObject& counters = metrics.at("counters").as_object();
  EXPECT_GT(counters.at("des.runs").as_number(), 0.0);
  EXPECT_GT(counters.at("pool.tasks").as_number(), 0.0);
  EXPECT_GT(counters.at("symreg.generations").as_number(), 0.0);
  EXPECT_GT(metrics.at("histograms")
                .as_object()
                .at("symreg.best_fitness")
                .as_object()
                .at("count")
                .as_number(),
            0.0);

  const util::JsonObject trace =
      util::Json::parse(slurp(dir / "trace.json")).as_object();
  bool saw_run_des = false;
  for (const util::Json& event : trace.at("traceEvents").as_array()) {
    EXPECT_EQ(event.as_object().at("ph").as_string(), "X");
    saw_run_des |= event.as_object().at("name").as_string() == "core.run_des";
  }
  EXPECT_TRUE(saw_run_des);

  const std::string summary = slurp(dir / "summary.txt");
  EXPECT_NE(summary.find("core.run_des"), std::string::npos);
  EXPECT_NE(summary.find("model.symreg_fit"), std::string::npos);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ftbesst
