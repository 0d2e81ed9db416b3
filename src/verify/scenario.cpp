#include "verify/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "core/workflow.hpp"
#include "model/perf_model.hpp"
#include "net/topology.hpp"
#include "util/number.hpp"

namespace ftbesst::verify {

namespace {

constexpr const char* kMagic = "ftbesst-scenario v1";
constexpr const char* kWorkKernel = "work";

std::string checkpoint_kernel_name(ft::Level level) {
  return "ckpt_l" + std::to_string(static_cast<int>(level));
}

/// Every field of the scenario text format, in its fixed key order; `s` is
/// a Scenario or a const Scenario, and `f(key, field)` sees each field.
template <typename S, typename F>
void for_each_field(S& s, F&& f) {
  f("seed", s.seed);
  f("trials", s.trials);
  f("monte_carlo", s.monte_carlo);
  f("noise_sigma", s.noise_sigma);
  f("horizon_multiplier", s.horizon_multiplier);
  f("async_stage_fraction", s.async_stage_fraction);
  f("leaves", s.leaves);
  f("nodes_per_leaf", s.nodes_per_leaf);
  f("spines", s.spines);
  f("ranks_per_node", s.ranks_per_node);
  f("comm.sw_latency", s.comm.sw_latency);
  f("comm.injection_latency", s.comm.injection_latency);
  f("comm.bandwidth", s.comm.bandwidth);
  f("comm.congestion_gamma", s.comm.congestion_gamma);
  f("fti.group_size", s.fti.group_size);
  f("fti.node_size", s.fti.node_size);
  f("fti.l2_partners", s.fti.l2_partners);
  f("storage.local_write_bw", s.storage.local_write_bw);
  f("storage.local_latency", s.storage.local_latency);
  f("storage.nic_bw", s.storage.nic_bw);
  f("storage.nic_latency", s.storage.nic_latency);
  f("storage.rs_encode_rate", s.storage.rs_encode_rate);
  f("storage.pfs_bw", s.storage.pfs_bw);
  f("storage.pfs_latency", s.storage.pfs_latency);
  f("storage.sync_latency", s.storage.sync_latency);
  f("storage.congestion_per_node", s.storage.congestion_per_node);
  f("ranks", s.ranks);
  f("timesteps", s.timesteps);
  f("kernel_cost", s.kernel_cost);
  f("exchange_degree", s.exchange_degree);
  f("exchange_bytes", s.exchange_bytes);
  f("allreduce_bytes", s.allreduce_bytes);
  f("barrier", s.barrier);
  f("ckpt_bytes_per_rank", s.ckpt_bytes_per_rank);
  f("plan", s.plan);
  f("inject_faults", s.inject_faults);
  f("node_mtbf_seconds", s.node_mtbf_seconds);
  f("loss_fraction", s.loss_fraction);
  f("weibull_shape", s.weibull_shape);
  f("downtime_seconds", s.downtime_seconds);
}

}  // namespace

bool Scenario::has_async() const noexcept {
  return std::any_of(plan.begin(), plan.end(),
                     [](const ft::PlanEntry& e) { return e.async; });
}

std::string plan_to_string(const std::vector<ft::PlanEntry>& plan) {
  std::string out;
  for (const ft::PlanEntry& e : plan) {
    if (!out.empty()) out += ',';
    out += 'L';
    out += std::to_string(static_cast<int>(e.level));
    out += ':';
    out += std::to_string(e.period);
    if (e.async) out += 'a';
  }
  return out;
}

std::string Scenario::to_text() const {
  std::string out(kMagic);
  out += '\n';
  for_each_field(*this, [&out](const char* key, const auto& field) {
    using T = std::decay_t<decltype(field)>;
    out += key;
    out += ' ';
    if constexpr (std::is_same_v<T, double>)
      util::append_double(out, field);
    else if constexpr (std::is_same_v<T, bool>)
      out += field ? '1' : '0';
    else if constexpr (std::is_integral_v<T>)
      out += std::to_string(field);
    else
      out += field.empty() ? "-" : plan_to_string(field);
    out += '\n';
  });
  return out;
}

Scenario Scenario::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return from_text(text.str());
}

Scenario Scenario::from_text(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kMagic)
    throw std::invalid_argument(
        "not a scenario document (expected header '" + std::string(kMagic) +
        "', got '" + line + "')");

  Scenario s;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    if (space == std::string::npos)
      throw std::invalid_argument("bad scenario line '" + line +
                                  "' (expected 'key value')");
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    try {
      bool known = false;
      for_each_field(s, [&](const char* name, auto& field) {
        using T = std::decay_t<decltype(field)>;
        if (key != name) return;
        known = true;
        if constexpr (std::is_same_v<T, bool>)
          field = util::parse_number<std::int64_t>(value, key) != 0;
        else if constexpr (std::is_arithmetic_v<T>)
          field = util::parse_number<T>(value, key);
        else
          field = value == "-" ? T{} : core::parse_plan(value);
      });
      if (!known)
        throw std::invalid_argument("unknown scenario key '" + key + "'");
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("scenario line '" + line +
                                  "': " + e.what());
    }
  }
  return s;
}

BuiltScenario build(const Scenario& s, const BuildOverrides& overrides) {
  if (s.timesteps < 0)
    throw std::invalid_argument("scenario timesteps must be >= 0");
  if (s.trials < 1)
    throw std::invalid_argument("scenario trials must be >= 1");
  if (s.kernel_cost < 0.0 || !std::isfinite(s.kernel_cost))
    throw std::invalid_argument("scenario kernel_cost must be finite >= 0");
  core::validate_plan(s.plan);

  auto topo = std::make_shared<net::TwoStageFatTree>(s.leaves,
                                                     s.nodes_per_leaf,
                                                     s.spines);
  core::ArchBEO arch("verify", topo, s.comm, s.ranks_per_node);
  arch.set_fti(s.fti);
  if (s.ranks > arch.max_ranks())
    throw std::invalid_argument("scenario ranks exceed the machine");

  model::PerfModelPtr work = std::make_shared<model::ConstantModel>(
      s.kernel_cost);
  if (s.noise_sigma > 0.0)
    work = std::make_shared<model::NoisyModel>(std::move(work),
                                               s.noise_sigma);
  arch.bind_kernel(kWorkKernel, std::move(work));

  // Closed-form clean runtime (engine-side models) used only to bound the
  // fault-injection horizon; the independent analytic twin lives in
  // verify/reference.cpp.
  double per_timestep = s.kernel_cost;
  if (s.exchange_degree > 0)
    per_timestep += arch.comm().neighbor_exchange_time(
        s.ranks, s.exchange_degree, s.exchange_bytes);
  if (s.allreduce_bytes > 0)
    per_timestep += arch.comm().allreduce_time(s.ranks, s.allreduce_bytes);
  if (s.barrier) per_timestep += arch.comm().barrier_time(s.ranks);
  double clean_estimate = per_timestep * s.timesteps;

  if (!s.plan.empty()) {
    const ft::CheckpointCostModel cost(s.storage, s.fti);
    const ft::CheckpointScheduler scheduler(s.plan);
    for (const ft::PlanEntry& entry : s.plan) {
      const double c = overrides.checkpoint_cost_scale *
                       cost.cost(entry.level, s.ckpt_bytes_per_rank, s.ranks);
      arch.bind_kernel(checkpoint_kernel_name(entry.level),
                       std::make_shared<model::ConstantModel>(c));
      const double r = overrides.restart_cost_scale *
                       cost.restart_cost(entry.level, s.ckpt_bytes_per_rank,
                                         s.ranks);
      arch.bind_restart(entry.level,
                        std::make_shared<model::ConstantModel>(r));
      clean_estimate += c * static_cast<double>(
                                s.timesteps / std::max(1, entry.period));
    }
  }

  if (s.inject_faults)
    arch.set_fault_process(ft::FaultProcess(s.node_mtbf_seconds,
                                            s.loss_fraction,
                                            s.weibull_shape));

  core::EngineOptions options;
  options.seed = s.seed;
  options.monte_carlo = s.monte_carlo;
  options.inject_faults = s.inject_faults;
  options.downtime_seconds = s.downtime_seconds;
  options.async_stage_fraction = s.async_stage_fraction;
  options.max_sim_seconds =
      s.horizon_multiplier *
      (clean_estimate + 10.0 * s.downtime_seconds + 1.0);

  core::AppBEO app("verify_app", s.ranks);
  app.set_checkpoint_bytes_per_rank(s.ckpt_bytes_per_rank);
  const ft::CheckpointScheduler scheduler(s.plan);
  const double ranks_d = static_cast<double>(s.ranks);
  for (int t = 1; t <= s.timesteps; ++t) {
    app.compute(kWorkKernel, {ranks_d});
    if (s.exchange_degree > 0)
      app.neighbor_exchange(s.exchange_degree, s.exchange_bytes);
    if (s.allreduce_bytes > 0) app.allreduce(s.allreduce_bytes);
    if (s.barrier) app.barrier();
    app.end_timestep();
    for (const ft::PlanEntry& entry : scheduler.due_entries_after(t))
      app.checkpoint(entry.level, checkpoint_kernel_name(entry.level),
                     {static_cast<double>(s.ckpt_bytes_per_rank), ranks_d},
                     entry.async);
  }

  return BuiltScenario{std::move(app), std::move(arch), options};
}

ScenarioGenerator::ScenarioGenerator(std::uint64_t seed) : rng_(seed) {}

Scenario ScenarioGenerator::next() {
  util::Rng rng = rng_.split(index_++);
  Scenario s;
  s.seed = rng();

  // Machine: keep it small enough that 200 scenarios (each priced by BSP,
  // DES, the analytic twin, and two ensembles) stay inside a CI budget.
  s.leaves = 1 + static_cast<int>(rng.uniform_int(3));
  s.nodes_per_leaf = 2 + static_cast<int>(rng.uniform_int(7));
  s.spines = 1 + static_cast<int>(rng.uniform_int(2));
  s.ranks_per_node = 1 + static_cast<int>(rng.uniform_int(4));
  s.comm.sw_latency = 100e-9 * std::pow(10.0, rng.uniform(-0.5, 0.5));
  s.comm.injection_latency = 600e-9 * std::pow(10.0, rng.uniform(-0.5, 0.5));
  s.comm.bandwidth = 12.5e9 * std::pow(10.0, rng.uniform(-1.0, 0.5));
  s.comm.congestion_gamma = rng.uniform(0.0, 0.2);

  s.fti.group_size = 2 + static_cast<int>(rng.uniform_int(3));
  s.fti.node_size = 1 + static_cast<int>(rng.uniform_int(2));
  s.fti.l2_partners = 1;

  // Perturb the storage speeds so the checkpoint-cost model is exercised
  // across its whole parameter space, not just the defaults.
  auto jitter = [&rng](double base) {
    return base * std::pow(10.0, rng.uniform(-0.5, 0.5));
  };
  s.storage.local_write_bw = jitter(1.0e9);
  s.storage.local_latency = jitter(2e-3);
  s.storage.nic_bw = jitter(6.0e9);
  s.storage.nic_latency = jitter(5e-6);
  s.storage.rs_encode_rate = jitter(1.2e9);
  s.storage.pfs_bw = jitter(40.0e9);
  s.storage.pfs_latency = jitter(15e-3);
  s.storage.sync_latency = jitter(20e-6);
  s.storage.congestion_per_node = jitter(2e-5);

  // Ranks: a multiple of the FTI unit (group_size x node_size) so any
  // checkpointing plan validates, bounded by the machine.
  const std::int64_t max_ranks = static_cast<std::int64_t>(s.leaves) *
                                 s.nodes_per_leaf * s.ranks_per_node;
  const std::int64_t unit = static_cast<std::int64_t>(s.fti.group_size) *
                            s.fti.node_size;
  const std::int64_t max_units = std::max<std::int64_t>(
      1, std::min<std::int64_t>(48, max_ranks) / unit);
  s.ranks = unit * static_cast<std::int64_t>(
                       1 + rng.uniform_int(
                               static_cast<std::uint64_t>(max_units)));
  if (s.ranks > max_ranks) {
    // Tiny machines may not fit one FTI unit; grow the tree instead of
    // shrinking the unit so the FTI semantics stay representative.
    s.leaves = static_cast<int>((s.ranks + s.nodes_per_leaf *
                                               s.ranks_per_node - 1) /
                                (s.nodes_per_leaf * s.ranks_per_node));
  }

  s.timesteps = 3 + static_cast<int>(rng.uniform_int(38));
  s.kernel_cost = std::pow(10.0, rng.uniform(-2.0, 1.5));
  if (rng.uniform() < 0.5) {
    s.exchange_degree = 1 + static_cast<int>(rng.uniform_int(6));
    s.exchange_bytes = 1ull << (8 + rng.uniform_int(15));
  }
  if (rng.uniform() < 0.5) s.allreduce_bytes = 1ull << (3 + rng.uniform_int(14));
  s.barrier = rng.uniform() < 0.3;
  s.ckpt_bytes_per_rank = 1ull << (16 + rng.uniform_int(11));

  // Checkpoint plan: 0-3 distinct levels.
  const int entries = static_cast<int>(rng.uniform_int(4));
  bool used[5] = {};
  for (int i = 0; i < entries; ++i) {
    const int level = 1 + static_cast<int>(rng.uniform_int(4));
    if (used[level]) continue;
    used[level] = true;
    ft::PlanEntry entry;
    entry.level = static_cast<ft::Level>(level);
    entry.period = 1 + static_cast<int>(rng.uniform_int(15));
    entry.async = rng.uniform() < 0.2;
    s.plan.push_back(entry);
  }
  std::sort(s.plan.begin(), s.plan.end(),
            [](const ft::PlanEntry& a, const ft::PlanEntry& b) {
              return static_cast<int>(a.level) < static_cast<int>(b.level);
            });

  s.noise_sigma = rng.uniform() < 0.4 ? rng.uniform(0.01, 0.3) : 0.0;
  s.monte_carlo = s.noise_sigma > 0.0;

  if (rng.uniform() < 0.5) {
    s.inject_faults = true;
    // Pin the system MTBF to the clean runtime scale so faults actually
    // strike (and sometimes don't) across the corpus.
    const double clean_scale =
        std::max(1e-3, s.kernel_cost * s.timesteps);
    const std::int64_t nodes =
        std::max<std::int64_t>(1, s.ranks / std::max(1, s.fti.node_size));
    const double system_mtbf = clean_scale * rng.uniform(0.3, 4.0);
    s.node_mtbf_seconds = system_mtbf * static_cast<double>(nodes);
    const double roll = rng.uniform();
    s.loss_fraction = roll < 0.4 ? 1.0 : roll < 0.7 ? 0.0 : 0.3;
    const double shape_roll = rng.uniform();
    s.weibull_shape = shape_roll < 0.6 ? 1.0
                      : shape_roll < 0.8 ? rng.uniform(0.6, 0.95)
                                         : rng.uniform(1.1, 2.5);
    s.downtime_seconds = rng.uniform(0.0, 5.0);
  }

  s.trials = 4 + static_cast<int>(rng.uniform_int(9));
  return s;
}

}  // namespace ftbesst::verify
