// The three in-process workloads: dse_sweep, inject_campaign, vulcan_fold.
// Each op is one call into the library's public API with a seed from a
// fixed cycle derived from the workload seed; the common runner in
// main.cpp times the ops and checks their digests against reference().

#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "apps/kernels.hpp"
#include "apps/lulesh.hpp"
#include "apps/testbed.hpp"
#include "bench.hpp"
#include "core/arch.hpp"
#include "core/engine_bsp.hpp"
#include "core/engine_des.hpp"
#include "core/montecarlo.hpp"
#include "core/workflow.hpp"
#include "harness.hpp"
#include "inject/campaign.hpp"
#include "inject/sdc.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "util/task_pool.hpp"
#include "verify/corpus.hpp"
#include "verify/differential.hpp"
#include "verify/scenario.hpp"

namespace perfbench {
namespace {

using namespace ftbesst;

/// Ops per cycle: each cycle position has its own derived seed.
constexpr std::size_t kCycle = 8;

std::vector<std::uint64_t> seed_cycle(std::uint64_t workload_seed) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t k = 0; k < kCycle; ++k)
    seeds.push_back(mix(workload_seed ^ mix(k + 1)));
  return seeds;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// ---------------------------------------------------------------------------
// dse_sweep: the paper's Table II case study. Set-up is the calibration
// campaign on the Quartz-like testbed plus model development; one op is the
// Fig. 9 co-design sweep {No FT, L1, L1&L2} x 5 eprs x 5 rank counts x 30
// Monte-Carlo trials on the shared pool.

const std::vector<int> kEprs{5, 10, 15, 20, 25};
const std::vector<std::int64_t> kRanks{8, 64, 216, 512, 1000};
constexpr std::size_t kDseTrials = 30;
constexpr int kTimesteps = 200;
constexpr int kCheckpointPeriod = 40;
constexpr std::uint64_t kCalibrationSeed = 2021;

ft::FtiConfig case_study_fti() {
  ft::FtiConfig fti;
  fti.group_size = 4;
  fti.node_size = 2;
  return fti;
}

std::vector<core::Scenario> case_study_scenarios() {
  return {{"No FT", {}},
          {"L1", {{ft::Level::kL1, kCheckpointPeriod}}},
          {"L1 & L2",
           {{ft::Level::kL1, kCheckpointPeriod},
            {ft::Level::kL2, kCheckpointPeriod}}}};
}

core::AppBEO case_study_app(const core::Scenario& scenario,
                            const std::vector<double>& params) {
  apps::LuleshConfig cfg;
  cfg.epr = static_cast<int>(params[0]);
  cfg.ranks = static_cast<std::int64_t>(params[1]);
  cfg.timesteps = kTimesteps;
  cfg.plan = scenario.plan;
  cfg.fti = case_study_fti();
  return apps::build_lulesh_fti(cfg);
}

std::uint64_t digest_dse(const std::vector<core::DsePoint>& points) {
  Digest d;
  d.u64(points.size());
  for (const core::DsePoint& p : points) {
    const core::EnsembleResult& e = p.ensemble;
    d.bytes(p.scenario).f64s(p.params).f64s(e.totals);
    d.f64(e.total.mean).f64(e.total.stddev).f64(e.total.min);
    d.f64(e.total.max).f64(e.total.median).f64s(e.mean_timestep_end);
    d.f64(e.mean_faults).f64(e.mean_rollbacks).f64(e.mean_full_restarts);
    d.u64(e.incomplete_trials);
  }
  return d.value();
}

class DseSweep final : public OpWorkload {
 public:
  explicit DseSweep(const Options& options)
      : seeds_(seed_cycle(options.seed)), trace_(options.trace) {
    for (const int epr : kEprs)
      for (const std::int64_t ranks : kRanks)
        points_.push_back(
            {static_cast<double>(epr), static_cast<double>(ranks)});
  }

  void setup(Result& result) override {
    const std::vector<std::string> kernels{
        apps::kLuleshTimestep, apps::checkpoint_kernel(ft::Level::kL1),
        apps::checkpoint_kernel(ft::Level::kL2)};
    apps::QuartzTestbed testbed({}, case_study_fti());
    apps::CampaignSpec spec;
    spec.eprs = kEprs;
    spec.ranks = kRanks;
    spec.samples_per_point = 10;
    spec.seed = kCalibrationSeed;

    auto start = Clock::now();
    std::map<std::string, model::Dataset> calibration;
    {
      obs::Span span("apps.run_campaign");
      calibration = apps::run_campaign(testbed, spec, kernels);
    }
    const double calibrate_s = seconds_since(start);

    model::FitOptions fit;
    fit.seed = kCalibrationSeed;
    start = Clock::now();
    {
      obs::Span span("core.develop_models");
      suite_ = core::develop_models(calibration, fit);
    }
    const double fit_s = seconds_since(start);

    // Quartz-like architecture: two-stage fat-tree, 36-core nodes.
    auto topology = std::make_shared<net::TwoStageFatTree>(94, 32, 24);
    net::CommParams comm;
    comm.bandwidth = 12.5e9;
    arch_ = std::make_unique<core::ArchBEO>("quartz", topology, comm, 36);
    arch_->set_fti(case_study_fti());
    suite_.bind_into(*arch_);

    if (trace_) {
      result.set("apps.calibrate_s", calibrate_s, "s");
      result.set("model.fit_s", fit_s, "s");
    }
  }

  std::size_t cycle() const override { return kCycle; }
  unsigned pool_threads() const override {
    return util::TaskPool::shared().worker_count();
  }

  std::uint64_t op(std::size_t k) override { return sweep(k, 0); }
  std::uint64_t reference(std::size_t k) override { return sweep(k, 1); }

  void probe(Result& result) override {
    // PerfModel::predict over the sweep's parameter rows.
    const model::PerfModel& model =
        *suite_.kernels.at(apps::kLuleshTimestep).model;
    constexpr int kPasses = 2000;
    double sink = 0.0;
    const auto start = Clock::now();
    {
      obs::Span span("model.predict");
      for (int pass = 0; pass < kPasses; ++pass)
        for (const auto& row : points_) sink += model.predict(row);
    }
    const double calls = static_cast<double>(kPasses * points_.size());
    result.set("model.predict_ns", seconds_since(start) * 1e9 / calls, "ns");
    result.info["predict_checksum"] = svc::Json(sink);

    // One run_ensemble cell at threads=1, median over the sweep's cells.
    core::EngineOptions engine;
    engine.seed = seeds_[0];
    std::vector<double> cell_ms;
    for (const core::Scenario& scenario : case_study_scenarios())
      for (const auto& row : points_) {
        const core::AppBEO app = case_study_app(scenario, row);
        const auto cell_start = Clock::now();
        {
          obs::Span span("core.run_ensemble");
          (void)core::run_ensemble(app, *arch_, engine, kDseTrials, 1);
        }
        cell_ms.push_back(seconds_since(cell_start) * 1e3);
      }
    result.set("core.ensemble_ms", median(cell_ms), "ms", cell_ms.size());
  }

 private:
  std::uint64_t sweep(std::size_t k, unsigned threads) {
    obs::Span span("core.run_dse");
    core::EngineOptions engine;
    engine.seed = seeds_[k];
    return digest_dse(core::run_dse(case_study_scenarios(), points_,
                                    case_study_app, *arch_, engine,
                                    kDseTrials, threads));
  }

  std::vector<std::uint64_t> seeds_;
  bool trace_ = false;
  std::vector<std::vector<double>> points_;
  core::ModelSuite suite_;
  std::unique_ptr<core::ArchBEO> arch_;
};

// ---------------------------------------------------------------------------
// inject_campaign: the bench_ext_inject configuration — 1000-rank
// LULESH_FTI, plan L1:10,L2:20, fail-stop and silent-corruption processes,
// DES engine — as Monte-Carlo campaigns whose trials spread over the pool.

constexpr std::int64_t kInjectRanks = 1000;
constexpr int kInjectTimesteps = 100;
constexpr std::size_t kCampaignTrials = 4;

std::uint64_t digest_campaign(const inject::CampaignResult& r) {
  Digest d;
  d.f64s(r.totals).f64(r.total.mean).f64(r.total.stddev);
  d.f64(r.p10).f64(r.p50).f64(r.p90);
  d.f64(r.mean_faults).f64(r.mean_rollbacks).f64(r.mean_full_restarts);
  d.f64(r.mean_lost_work);
  for (const double v : r.mean_recoveries_by_level) d.f64(v);
  d.u64(r.incomplete_trials).bytes(r.fault_log.to_text());
  return d.value();
}

class InjectCampaign final : public OpWorkload {
 public:
  explicit InjectCampaign(const Options& options)
      : seeds_(seed_cycle(options.seed)) {}

  void setup(Result&) override {
    // 16 x 16 node fat-tree, 4 ranks/node; FTI groups of 4 nodes with 2
    // ranks each -> 500 fault-domain nodes for the 1000-rank app.
    auto topo = std::make_shared<net::TwoStageFatTree>(16, 16, 8);
    arch_ = std::make_unique<core::ArchBEO>("quartz_1k", topo,
                                            net::CommParams{}, 4);
    arch_->set_fti(ft::FtiConfig{4, 2, 1});
    arch_->bind_kernel(apps::kLuleshTimestep,
                       std::make_shared<model::ConstantModel>(0.5));
    for (int level = 1; level <= 4; ++level) {
      const auto l = static_cast<ft::Level>(level);
      arch_->bind_kernel(apps::checkpoint_kernel(l),
                         std::make_shared<model::ConstantModel>(0.05 * level));
      arch_->bind_restart(
          l, std::make_shared<model::ConstantModel>(0.1 * level));
    }
    arch_->set_fault_process(ft::FaultProcess(6000.0, 0.3));
    arch_->set_sdc_process(inject::SdcProcess(25000.0, 0.5));

    apps::LuleshConfig config;
    config.epr = 15;
    config.ranks = kInjectRanks;
    config.timesteps = kInjectTimesteps;
    config.fti = ft::FtiConfig{4, 2, 1};
    config.plan = {{ft::Level::kL1, 10, false}, {ft::Level::kL2, 20, false}};
    app_ = std::make_unique<core::AppBEO>(apps::build_lulesh_fti(config));
    (void)op(0);  // the process's first campaign: cold pool and caches
  }

  std::size_t cycle() const override { return kCycle; }
  unsigned pool_threads() const override {
    return util::TaskPool::shared().worker_count();
  }

  std::uint64_t op(std::size_t k) override { return campaign(k, 0); }
  std::uint64_t reference(std::size_t k) override { return campaign(k, 1); }

  void probe(Result& result) override {
    const core::EngineOptions engine = engine_options(seeds_[0]);
    std::vector<double> ms;
    std::uint64_t events = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = Clock::now();
      {
        obs::Span span("core.run_des");
        events = core::run_des(*app_, *arch_, engine).sim_events;
      }
      ms.push_back(seconds_since(start) * 1e3);
    }
    const double run_ms = median(ms);
    result.set("core.run_des_ms", run_ms, "ms", ms.size());
    result.set("sim.events_per_s", static_cast<double>(events) / (run_ms * 1e-3),
               "1/s");
  }

 private:
  static core::EngineOptions engine_options(std::uint64_t seed) {
    core::EngineOptions opt;
    opt.seed = seed;
    opt.inject_faults = true;
    opt.downtime_seconds = 2.0;
    // Clean makespan is ~55 s; a 50x horizon keeps the per-node fault
    // schedules small while leaving thrash headroom.
    opt.max_sim_seconds = 50.0 * (kInjectTimesteps * 0.5 + 20.0);
    return opt;
  }

  std::uint64_t campaign(std::size_t k, unsigned threads) {
    obs::Span span("inject.run_campaign");
    inject::CampaignOptions opt;
    opt.trials = kCampaignTrials;
    opt.threads = threads;
    opt.engine = engine_options(seeds_[k]);
    return digest_campaign(inject::run_campaign(*app_, *arch_, opt));
  }

  std::vector<std::uint64_t> seeds_;
  std::unique_ptr<core::ArchBEO> arch_;
  std::unique_ptr<core::AppBEO> app_;
};

// ---------------------------------------------------------------------------
// vulcan_fold: verify::build plus folded run_des on the 393,216-rank
// vulcan_393k corpus entry. Deterministic, so the seed does not change the
// op; its cost is fold planning over 393k ranks.

std::uint64_t digest_prediction(double total,
                                const std::vector<double>& timestep_end) {
  return Digest().f64(total).f64s(timestep_end).value();
}

class VulcanFold final : public OpWorkload {
 public:
  explicit VulcanFold(const Options& options)
      : scenario_path_(options.repo + "/tests/corpus/vulcan_393k.scenario"),
        expected_path_(options.repo + "/tests/corpus/vulcan_393k.expected") {}

  void setup(Result&) override {
    scenario_ = verify::Scenario::from_text(read_file(scenario_path_));
    (void)op(0);  // the process's first build + fold plan: cold caches
  }

  std::size_t cycle() const override { return 1; }
  unsigned pool_threads() const override {
    return util::TaskPool::shared().worker_count();
  }
  bool serial_reference() const override { return false; }

  std::uint64_t op(std::size_t) override {
    verify::BuiltScenario built = [&] {
      obs::Span span("verify.build");
      return verify::build(scenario_);
    }();
    built.options.fold_symmetry = true;
    obs::Span span("core.run_des");
    const core::RunResult r =
        core::run_des(built.app, built.arch, built.options);
    if (!r.completed) throw std::runtime_error("vulcan run did not complete");
    return digest_prediction(r.total_seconds, r.timestep_end_times);
  }

  /// A fresh folded prediction, accepted only if the corpus entry still
  /// replays byte for byte (verify::result_to_text, the run_bsp ensemble,
  /// against the recorded `.expected`) and the folded DES prediction agrees
  /// with run_bsp within verify::DiffTolerances (relative engine_rel plus
  /// one DES tick per executed instruction: the DES quantizes durations to
  /// ticks, so bitwise equality with the BSP is not expected). Every timed
  /// op must then reproduce it bit for bit. On a failed check the digest
  /// of the BSP prediction is returned, which no DES op reproduces, so
  /// every op counts as failed.
  std::uint64_t reference(std::size_t) override {
    const verify::DiffTolerances tolerance;
    verify::BuiltScenario built = verify::build(scenario_);
    const core::RunResult bsp =
        core::run_bsp(built.app, built.arch, built.options);
    built.options.fold_symmetry = true;
    const core::RunResult des =
        core::run_des(built.app, built.arch, built.options);
    const double slack = tolerance.des_tick_seconds *
                         static_cast<double>(bsp.instructions_executed);
    const auto close = [&](double a, double b) {
      return std::abs(a - b) <= tolerance.engine_rel * std::abs(b) + slack;
    };
    bool ok = verify::result_to_text(scenario_) == read_file(expected_path_);
    if (!ok)
      std::cerr << "ftbench: vulcan_393k no longer replays " << expected_path_
                << "\n";
    ok = ok && des.completed && close(des.total_seconds, bsp.total_seconds) &&
         des.timestep_end_times.size() == bsp.timestep_end_times.size();
    for (std::size_t i = 0; ok && i < bsp.timestep_end_times.size(); ++i)
      ok = close(des.timestep_end_times[i], bsp.timestep_end_times[i]);
    if (!ok) {
      std::cerr << "ftbench: folded vulcan_393k prediction disagrees with "
                   "the recorded corpus output\n";
      return digest_prediction(bsp.total_seconds, bsp.timestep_end_times);
    }
    return digest_prediction(des.total_seconds, des.timestep_end_times);
  }

  void probe(Result& result) override {
    std::vector<double> build_ms, des_ms;
    std::uint64_t events = 0;
    for (int rep = 0; rep < 5; ++rep) {
      auto start = Clock::now();
      verify::BuiltScenario built = [&] {
        obs::Span span("verify.build");
        return verify::build(scenario_);
      }();
      build_ms.push_back(seconds_since(start) * 1e3);
      built.options.fold_symmetry = true;
      start = Clock::now();
      {
        obs::Span span("core.run_des");
        events = core::run_des(built.app, built.arch, built.options).sim_events;
      }
      des_ms.push_back(seconds_since(start) * 1e3);
    }
    result.set("verify.build_ms", median(build_ms), "ms", build_ms.size());
    result.set("core.run_des_ms", median(des_ms), "ms", des_ms.size());
    result.set("sim.events_per_s",
               static_cast<double>(events) / (median(des_ms) * 1e-3), "1/s");
  }

 private:
  std::string scenario_path_, expected_path_;
  verify::Scenario scenario_;
};

}  // namespace

std::unique_ptr<OpWorkload> make_dse_sweep(const Options& options) {
  return std::make_unique<DseSweep>(options);
}

std::unique_ptr<OpWorkload> make_inject_campaign(const Options& options) {
  return std::make_unique<InjectCampaign>(options);
}

std::unique_ptr<OpWorkload> make_vulcan_fold(const Options& options) {
  return std::make_unique<VulcanFold>(options);
}

}  // namespace perfbench
