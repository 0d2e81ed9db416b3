// Extension bench: in-simulation fault-injection throughput
// (src/inject) as machine-readable JSON.
//
// Workload: a 1000-rank LULESH_FTI run on a Quartz-like fat-tree with an
// L1+L2 FTI plan, a node-level fail-stop process (Weibull-capable, here
// exponential) AND a silent-corruption process with detection latency —
// the open paper Cases 1/2 configuration. Two sections:
//   - "single_run": one injected run_des, folded and unfolded
//     (fold_symmetry off, every rank its own component): wall-clock, PDES
//     events and events/sec of each, faults/rollbacks, makespan. Recovery
//     is coordinated, so the folded run keeps struck ranks in their class
//     and dispatches a few hundred events; the unfolded run is the raw
//     event throughput under faults.
//   - "campaign": the N-trial Monte-Carlo campaign (inject::run_campaign)
//     at 1 thread and on the shared pool: wall-clock, trials/sec, makespan
//     distribution (mean/p10/p50/p90), mean faults and per-level
//     recoveries.
//
// Exit 1 (DIVERGENCE/GATE line on stderr) if:
//   - the single injected run does not complete or injects no faults,
//   - the folded and unfolded single runs differ in any result field
//     (sim_events aside) or fault-log byte,
//   - the 1-thread and pooled campaigns disagree bitwise on any trial
//     makespan or on the fault log,
//   - any campaign trial hits the simulation horizon, or
//   - the pooled campaign takes 10 s or longer of wall-clock.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "apps/kernels.hpp"
#include "apps/lulesh.hpp"
#include "core/arch.hpp"
#include "core/engine_des.hpp"
#include "inject/campaign.hpp"
#include "inject/sdc.hpp"
#include "net/topology.hpp"

using namespace ftbesst;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::int64_t kRanks = 1000;  // 10^3: perfect cube for LULESH
constexpr int kTimesteps = 100;
constexpr std::size_t kTrials = 16;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool bits_equal(double a, double b) {
  std::uint64_t ua = 0, ub = 0;
  std::memcpy(&ua, &a, sizeof a);
  std::memcpy(&ub, &b, sizeof b);
  return ua == ub;
}

core::ArchBEO make_arch() {
  // 16 x 16 node fat-tree, 4 ranks/node physically; FTI groups of 4 nodes
  // with 2 ranks each -> 500 fault-domain nodes for the 1000-rank app.
  auto topo = std::make_shared<net::TwoStageFatTree>(16, 16, 8);
  core::ArchBEO arch("quartz_1k", topo, net::CommParams{}, 4);
  arch.set_fti(ft::FtiConfig{4, 2, 1});
  arch.bind_kernel(apps::kLuleshTimestep,
                   std::make_shared<model::ConstantModel>(0.5));
  for (int level = 1; level <= 4; ++level) {
    const auto l = static_cast<ft::Level>(level);
    arch.bind_kernel(apps::checkpoint_kernel(l),
                     std::make_shared<model::ConstantModel>(0.05 * level));
    arch.bind_restart(l, std::make_shared<model::ConstantModel>(0.1 * level));
  }
  // ~4 fail-stop faults and ~1 corruption per trial over the ~55 s run.
  arch.set_fault_process(ft::FaultProcess(6000.0, 0.3));
  arch.set_sdc_process(inject::SdcProcess(25000.0, 0.5));
  return arch;
}

core::AppBEO make_app() {
  apps::LuleshConfig config;
  config.epr = 15;
  config.ranks = kRanks;
  config.timesteps = kTimesteps;
  config.fti = ft::FtiConfig{4, 2, 1};
  config.plan = {{ft::Level::kL1, 10, false}, {ft::Level::kL2, 20, false}};
  return apps::build_lulesh_fti(config);
}

core::EngineOptions make_options() {
  core::EngineOptions opt;
  opt.seed = 424242;
  opt.inject_faults = true;
  opt.downtime_seconds = 2.0;
  // Clean makespan is ~55 s; a 50x horizon keeps the pre-materialized
  // per-node fault schedules small while leaving generous thrash headroom.
  opt.max_sim_seconds = 50.0 * (kTimesteps * 0.5 + 20.0);
  return opt;
}

struct CampaignLeg {
  double wall_sec = 0;
  inject::CampaignResult result;
};

CampaignLeg run_leg(const core::AppBEO& app, const core::ArchBEO& arch,
                    unsigned threads) {
  inject::CampaignOptions opt;
  opt.trials = kTrials;
  opt.threads = threads;
  opt.engine = make_options();
  CampaignLeg leg;
  const auto start = Clock::now();
  leg.result = inject::run_campaign(app, arch, opt);
  leg.wall_sec = seconds_since(start);
  return leg;
}

struct SingleRun {
  double wall_sec = 0;
  core::RunResult result;
};

SingleRun run_single(const core::AppBEO& app, const core::ArchBEO& arch,
                     bool fold) {
  core::EngineOptions opt = make_options();
  opt.fold_symmetry = fold;
  SingleRun run;
  const auto start = Clock::now();
  run.result = core::run_des(app, arch, opt);
  run.wall_sec = seconds_since(start);
  return run;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!bits_equal(a[i], b[i])) return false;
  return true;
}

/// Every field except the sim_events diagnostic, bit for bit.
bool runs_identical(const core::RunResult& a, const core::RunResult& b) {
  return bits_equal(a.total_seconds, b.total_seconds) &&
         bits_equal(a.timestep_end_times, b.timestep_end_times) &&
         a.checkpoint_timesteps == b.checkpoint_timesteps &&
         a.instructions_executed == b.instructions_executed &&
         a.faults == b.faults && a.rollbacks == b.rollbacks &&
         a.full_restarts == b.full_restarts &&
         bits_equal(a.lost_work_seconds, b.lost_work_seconds) &&
         a.recoveries_by_level == b.recoveries_by_level &&
         a.completed == b.completed &&
         a.fault_log.to_text() == b.fault_log.to_text();
}

void print_single_run(const char* key, const SingleRun& run) {
  const auto events = run.result.sim_events;
  std::cout << "\"" << key << "\": {\"wall_sec\": " << run.wall_sec
            << ", \"events\": " << events << ", \"events_per_sec\": "
            << (run.wall_sec > 0 ? static_cast<double>(events) / run.wall_sec
                                 : 0.0)
            << "}";
}

bool campaigns_identical(const inject::CampaignResult& a,
                         const inject::CampaignResult& b) {
  if (a.totals.size() != b.totals.size()) return false;
  for (std::size_t i = 0; i < a.totals.size(); ++i)
    if (!bits_equal(a.totals[i], b.totals[i])) return false;
  return bits_equal(a.mean_faults, b.mean_faults) &&
         bits_equal(a.mean_lost_work, b.mean_lost_work) &&
         a.incomplete_trials == b.incomplete_trials &&
         a.fault_log.to_text() == b.fault_log.to_text();
}

void print_campaign_leg(const char* key, const CampaignLeg& leg, bool last) {
  const inject::CampaignResult& r = leg.result;
  std::cout << "    \"" << key << "\": {\"wall_sec\": " << leg.wall_sec
            << ", \"trials_per_sec\": "
            << (leg.wall_sec > 0
                    ? static_cast<double>(r.totals.size()) / leg.wall_sec
                    : 0.0)
            << ", \"mean\": " << r.total.mean << ", \"p10\": " << r.p10
            << ", \"p50\": " << r.p50 << ", \"p90\": " << r.p90
            << ", \"mean_faults\": " << r.mean_faults
            << ", \"mean_lost_work\": " << r.mean_lost_work
            << ", \"recoveries_by_level\": [" << r.mean_recoveries_by_level[0]
            << ", " << r.mean_recoveries_by_level[1] << ", "
            << r.mean_recoveries_by_level[2] << ", "
            << r.mean_recoveries_by_level[3]
            << "], \"incomplete_trials\": " << r.incomplete_trials << "}"
            << (last ? "\n" : ",\n");
}

}  // namespace

int main() {
  const core::AppBEO app = make_app();
  const core::ArchBEO arch = make_arch();

  // Single injected DES run, folded and unfolded: the unfolded run is the
  // raw event throughput under faults.
  const SingleRun folded = run_single(app, arch, true);
  const SingleRun unfolded = run_single(app, arch, false);
  const core::RunResult& single = folded.result;

  const CampaignLeg serial = run_leg(app, arch, 1);
  const CampaignLeg pooled = run_leg(app, arch, 0);

  const bool single_ok = single.completed && single.faults > 0;
  const bool fold_identical = runs_identical(folded.result, unfolded.result);
  const bool identical = campaigns_identical(serial.result, pooled.result);
  const bool all_complete = pooled.result.incomplete_trials == 0;
  const bool wall_ok = pooled.wall_sec < 10.0;
  const bool gates_pass =
      single_ok && fold_identical && identical && all_complete && wall_ok;

  std::cout.precision(6);
  std::cout << "{\n  \"workload\": {\"app\": \"lulesh_fti\", \"ranks\": "
            << kRanks << ", \"timesteps\": " << kTimesteps
            << ", \"plan\": \"L1:10,L2:20\", \"trials\": " << kTrials
            << "},\n"
            << "  \"single_run\": {";
  print_single_run("folded", folded);
  std::cout << ", ";
  print_single_run("unfolded", unfolded);
  std::cout << ", \"total_seconds\": " << single.total_seconds
            << ", \"faults\": " << single.faults
            << ", \"rollbacks\": " << single.rollbacks
            << ", \"full_restarts\": " << single.full_restarts
            << ", \"fold_bitwise_identical\": "
            << (fold_identical ? "true" : "false") << "},\n"
            << "  \"campaign\": {\n";
  print_campaign_leg("threads_1", serial, false);
  print_campaign_leg("pooled", pooled, true);
  std::cout << "  },\n"
            << "  \"threads_bitwise_identical\": "
            << (identical ? "true" : "false") << ",\n"
            << "  \"gates\": {\"pooled_wall_max_sec\": 10.0, \"pass\": "
            << (gates_pass ? "true" : "false") << "}\n"
            << "}\n";

  if (!single_ok)
    std::cerr << "GATE: single injected run incomplete or fault-free\n";
  else if (!fold_identical)
    std::cerr << "DIVERGENCE: folded and unfolded injected runs differ\n";
  else if (!identical)
    std::cerr << "DIVERGENCE: campaign depends on the thread count\n";
  else if (!all_complete)
    std::cerr << "GATE: " << pooled.result.incomplete_trials
              << " trial(s) hit the simulation horizon\n";
  else if (!wall_ok)
    std::cerr << "GATE: pooled campaign wall " << pooled.wall_sec
              << " s >= 10 s\n";
  return gates_pass ? 0 : 1;
}
