#include "core/engine_des.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "inject/ledger.hpp"
#include "inject/schedule.hpp"
#include "net/des_network.hpp"
#include "net/des_torus.hpp"
#include "obs/obs.hpp"
#include "sim/fold.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace ftbesst::core {

namespace {

using sim::Component;
using sim::Payload;
using sim::PortId;
using sim::SimTime;

constexpr PortId kSelfWake = 0;
constexpr PortId kArrive = 1;
constexpr PortId kRelease = 2;
constexpr PortId kNetDone = 3;
constexpr PortId kRollback = 4;  ///< coordinator -> rank: rewind plan cursor
constexpr PortId kFault = 5;     ///< coordinator self: fault detection fires

/// Rollback command broadcast to every rank when a recovery resolves: rewind
/// the plan cursor to `pc` and adopt epoch `epoch`. Events tagged with an
/// older epoch belong to the discarded timeline and are dropped on receipt.
struct RollbackCmd {
  std::uint64_t epoch = 0;
  std::size_t pc = 0;
};

bool is_collective(InstrKind kind) { return kind != InstrKind::kCompute; }

/// Uniform facade over the executed network substrates (fat-tree / torus).
class NetworkBackend {
 public:
  virtual ~NetworkBackend() = default;
  virtual void send(net::NodeId src, net::NodeId dst, std::uint64_t bytes,
                    SimTime time) = 0;
  virtual void on_delivery(net::NodeId node,
                           net::DeliveryHandler handler) = 0;
  [[nodiscard]] virtual net::NodeId num_nodes() const = 0;
};

class FatTreeBackend final : public NetworkBackend {
 public:
  FatTreeBackend(sim::Simulation& sim, const net::TwoStageFatTree& topo,
                 net::CommParams params)
      : net_(sim, topo, params) {}
  void send(net::NodeId src, net::NodeId dst, std::uint64_t bytes,
            SimTime time) override {
    net_.send(src, dst, bytes, time);
  }
  void on_delivery(net::NodeId node, net::DeliveryHandler handler) override {
    net_.on_delivery(node, std::move(handler));
  }
  [[nodiscard]] net::NodeId num_nodes() const override {
    return net_.topology().num_nodes();
  }

 private:
  net::DesNetwork net_;
};

class TorusBackend final : public NetworkBackend {
 public:
  TorusBackend(sim::Simulation& sim, const net::Torus& topo,
               net::CommParams params)
      : net_(sim, topo, params) {}
  void send(net::NodeId src, net::NodeId dst, std::uint64_t bytes,
            SimTime time) override {
    net_.send(src, dst, bytes, time);
  }
  void on_delivery(net::NodeId node, net::DeliveryHandler handler) override {
    net_.on_delivery(node, std::move(handler));
  }
  [[nodiscard]] net::NodeId num_nodes() const override {
    return net_.topology().num_nodes();
  }

 private:
  net::DesTorus net_;
};

/// Neighbour ranks for an exchange of the given degree: the 3-D cubic
/// decomposition's +-x/+-y/+-z neighbours (periodic) when the rank count is
/// a perfect cube and degree is 6; a ring otherwise.
std::vector<std::int64_t> exchange_neighbors(std::int64_t rank,
                                             std::int64_t ranks,
                                             int degree) {
  std::vector<std::int64_t> out;
  if (degree <= 0 || ranks < 2) return out;
  const auto side = static_cast<std::int64_t>(
      std::llround(std::cbrt(static_cast<double>(ranks))));
  if (degree == 6 && side * side * side == ranks && side > 1) {
    const std::int64_t x = rank % side;
    const std::int64_t y = (rank / side) % side;
    const std::int64_t z = rank / (side * side);
    auto at = [side](std::int64_t i, std::int64_t j, std::int64_t k) {
      return ((k + side) % side) * side * side + ((j + side) % side) * side +
             ((i + side) % side);
    };
    out = {at(x - 1, y, z), at(x + 1, y, z), at(x, y - 1, z),
           at(x, y + 1, z), at(x, y, z - 1), at(x, y, z + 1)};
    return out;
  }
  for (int d = 1; d <= (degree + 1) / 2 && out.size() <
                                               static_cast<std::size_t>(degree);
       ++d) {
    out.push_back((rank + d) % ranks);
    if (out.size() < static_cast<std::size_t>(degree))
      out.push_back((rank - d + ranks) % ranks);
  }
  return out;
}

/// Executes the SPMD program for one rank.
class RankComponent final : public Component {
 public:
  RankComponent(std::int64_t rank, const PricedProgram& priced,
                bool monte_carlo, util::Rng rng)
      : Component("rank" + std::to_string(rank)),
        priced_(&priced),
        monte_carlo_(monte_carlo),
        rng_(rng) {}

  void set_coordinator(sim::ComponentId coord) { coord_ = coord; }
  /// Injected runs tag every event with the current rollback epoch so that
  /// events from a discarded timeline are recognized and dropped.
  void enable_injection() { injected_ = true; }

  void init() override { advance(); }

  void handle_event(PortId port, std::unique_ptr<Payload> payload) override {
    if (injected_) {
      if (port == kRollback) {
        const auto* cmd = sim::unbox<RollbackCmd>(payload.get());
        epoch_ = cmd->epoch;
        pc_ = cmd->pc;
        advance();
        return;
      }
      // A self-wake or release scheduled before the rollback carries the
      // old epoch: it completes work on the discarded timeline. Drop it.
      const auto* epoch = sim::unbox<std::uint64_t>(payload.get());
      if (epoch != nullptr && *epoch != epoch_) return;
    }
    // Both a self-wake (compute done) and a coordinator release mean: move
    // to the next instruction.
    ++pc_;
    advance();
  }

  std::uint64_t instructions_executed = 0;

 private:
  void advance() {
    const auto& program = priced_->app().program();
    while (pc_ < program.size()) {
      const Instr& instr = program[pc_];
      ++instructions_executed;
      if (is_collective(instr.kind)) {
        // Tell the coordinator we reached this sync point; it releases us.
        schedule_to(coord_, kArrive, 0,
                    injected_ ? sim::box<std::uint64_t>(epoch_) : nullptr);
        return;
      }
      const double seconds = priced_->duration(pc_, monte_carlo_, rng_);
      schedule_self(sim::from_seconds(seconds),
                    injected_ ? sim::box<std::uint64_t>(epoch_) : nullptr,
                    kSelfWake);
      return;
    }
  }

  const PricedProgram* priced_;
  bool monte_carlo_;
  util::Rng rng_;
  sim::ComponentId coord_ = sim::kNoComponent;
  std::size_t pc_ = 0;
  bool injected_ = false;
  std::uint64_t epoch_ = 0;
};

/// Coordinates every synchronizing instruction and records the run trace.
class Coordinator final : public Component {
 public:
  Coordinator(const PricedProgram& priced, bool monte_carlo, util::Rng rng)
      : Component("coordinator"),
        priced_(&priced),
        app_(&priced.app()),
        monte_carlo_(monte_carlo),
        rng_(rng) {
    result_.timestep_end_times.assign(
        static_cast<std::size_t>(app_->timesteps()), 0.0);
  }

  void set_ranks(std::vector<sim::ComponentId> ranks) {
    ranks_ = std::move(ranks);
  }
  void set_network(NetworkBackend* network, std::int64_t ranks_per_node) {
    network_ = network;
    net_ranks_per_node_ = ranks_per_node;
  }
  /// Arm fault injection: replay `schedule` (absolute strike times,
  /// time-ordered) with recovery resolved by inject::resolve_fault.
  void set_injection(std::vector<ft::FaultEvent> schedule,
                     const EngineOptions& options) {
    injected_ = true;
    schedule_ = std::move(schedule);
    recovery_ = {&priced_->arch().fti(), app_->ranks(),
                 options.downtime_seconds, options.max_sim_seconds};
  }

  void init() override {
    // Position the rendezvous pointer on the first collective instruction.
    const auto& program = app_->program();
    while (sync_pc_ < program.size() && !is_collective(program[sync_pc_].kind))
      ++sync_pc_;
    if (injected_) {
      pending_ = next_fault(0.0);
      schedule_next_fault();
    }
  }

  void handle_event(PortId port, std::unique_ptr<Payload> payload) override {
    if (port == kFault) {
      on_fault();
      return;
    }
    if (port == kNetDone) {
      if (--pending_deliveries_ == 0) finish_collective(0);
      return;
    }
    if (port != kArrive) return;
    if (injected_) {
      // An arrival from the discarded timeline (sent before the rollback
      // rewound its rank) carries the old epoch: drop it.
      const auto* epoch = sim::unbox<std::uint64_t>(payload.get());
      if (epoch != nullptr && *epoch != epoch_) return;
    }
    if (++arrived_ < ranks_.size()) return;
    arrived_ = 0;

    // All ranks reached the collective at program counter `sync_pc_`.
    const Instr& instr = app_->program()[sync_pc_];
    if (instr.kind == InstrKind::kNeighborExchange && network_ != nullptr &&
        instr.degree > 0 && app_->ranks() > 1) {
      start_network_exchange(instr);
      return;  // finish_collective fires on the last delivery
    }
    finish_collective(priced_->duration(sync_pc_, monte_carlo_, rng_));
  }

  RunResult result_;

 private:
  /// Neighbour lists for every rank at this degree, computed once per
  /// (ranks, degree) and reused — exchanges repeat every timestep, and the
  /// cbrt/modulo walk per rank per timestep showed up in sweep profiles.
  const std::vector<std::vector<std::int64_t>>& neighbors_for(int degree) {
    auto it = neighbor_cache_.find(degree);
    if (it == neighbor_cache_.end()) {
      std::vector<std::vector<std::int64_t>> all(
          static_cast<std::size_t>(app_->ranks()));
      for (std::int64_t rank = 0; rank < app_->ranks(); ++rank)
        all[static_cast<std::size_t>(rank)] =
            exchange_neighbors(rank, app_->ranks(), degree);
      it = neighbor_cache_.emplace(degree, std::move(all)).first;
    }
    return it->second;
  }

  void start_network_exchange(const Instr& instr) {
    pending_deliveries_ = 0;
    const SimTime start = now();
    const auto& neighbors = neighbors_for(instr.degree);
    for (std::int64_t rank = 0; rank < app_->ranks(); ++rank) {
      const net::NodeId src_node =
          static_cast<net::NodeId>(rank / net_ranks_per_node_);
      for (std::int64_t peer : neighbors[static_cast<std::size_t>(rank)]) {
        const net::NodeId dst_node =
            static_cast<net::NodeId>(peer / net_ranks_per_node_);
        network_->send(src_node, dst_node, instr.bytes, start);
        ++pending_deliveries_;
      }
    }
    if (pending_deliveries_ == 0) finish_collective(0.0);
  }

  /// Complete the collective `extra_seconds` from now: record trace
  /// entries, advance the rendezvous pointer, release all ranks.
  void finish_collective(double extra_seconds) {
    const Instr& instr = app_->program()[sync_pc_];
    const SimTime duration = sim::from_seconds(extra_seconds);
    const double end_seconds = sim::to_seconds(now() + duration);

    if (injected_ && end_seconds > recovery_.max_sim_seconds) {
      // Horizon exceeded (the no-FT + high-fault-rate regime can thrash
      // forever): abandon the run, mirroring the coarse engine.
      abandon(end_seconds);
      return;
    }
    if (instr.kind == InstrKind::kTimestepEnd) {
      if (ts_done_ < app_->timesteps())
        result_.timestep_end_times[static_cast<std::size_t>(ts_done_)] =
            end_seconds;
      ++ts_done_;
    } else if (instr.kind == InstrKind::kCheckpoint) {
      if (result_.checkpoint_timesteps.empty() ||
          result_.checkpoint_timesteps.back() != ts_done_)
        result_.checkpoint_timesteps.push_back(ts_done_);
      if (injected_) {
        // The DES models checkpoints as synchronous collectives (no async
        // staging split), so a record is usable the instant it completes.
        // If a fault strikes before end_seconds, the record is discarded by
        // the strike-time purge — it never actually completed.
        inject::CheckpointRecord rec;
        rec.resume_pc = sync_pc_ + 1;
        rec.timesteps_done = ts_done_;
        rec.available_at = end_seconds;
        rec.completed_at = end_seconds;
        ledger_.record(instr.level, std::move(rec));
      }
    }
    result_.total_seconds = end_seconds;
    ++sync_pc_;
    // Skip forward past local instructions to the next collective; ranks do
    // that walk themselves, we just track where the next rendezvous is.
    const auto& program = app_->program();
    while (sync_pc_ < program.size() && !is_collective(program[sync_pc_].kind))
      ++sync_pc_;
    if (sync_pc_ >= program.size()) done_ = true;  // past the last rendezvous
    for (sim::ComponentId r : ranks_)
      schedule_to(r, kRelease, duration,
                  injected_ ? sim::box<std::uint64_t>(epoch_) : nullptr);
  }

  /// The pending fault's detection event fired: resolve recovery
  /// synchronously (inject::resolve_fault, shared with the coarse engine)
  /// and broadcast the rollback. Wall clock never rolls back; the rewound
  /// timeline's in-flight events are orphaned by the epoch bump.
  void on_fault() {
    if (done_) return;  // application already past its last rendezvous
    const inject::RecoveryOutcome out = inject::resolve_fault(
        pending_, sim::to_seconds(now()), recovery_, ledger_, result_,
        [this](double from) { return next_fault(from); },
        [this](std::size_t pc) {
          return priced_->restart_cost(pc, monte_carlo_, rng_);
        });
    if (out.action == inject::Recovery::kAbandon) {
      abandon(out.clock);
      return;
    }
    pending_ = out.next;
    resume(out.clock, out.resume_pc, out.timesteps_done);
  }

  /// Next scheduled fault striking at or after `from`; faults before it
  /// are skipped for good.
  ft::FaultEvent next_fault(double from) {
    while (sched_pos_ < schedule_.size() && schedule_[sched_pos_].time < from)
      ++sched_pos_;
    if (sched_pos_ < schedule_.size()) return schedule_[sched_pos_++];
    ft::FaultEvent none;
    none.time = inject::kNoFault;
    return none;
  }

  /// Rewind every rank to `pc` at wall-clock `resume_clock`: bump the epoch
  /// (orphaning the discarded timeline's events), reset the rendezvous
  /// state, broadcast the rollback command, and arm the next fault.
  void resume(double resume_clock, std::size_t pc, int ts) {
    ++epoch_;
    arrived_ = 0;
    ts_done_ = ts;
    done_ = false;
    const auto& program = app_->program();
    sync_pc_ = pc;
    while (sync_pc_ < program.size() && !is_collective(program[sync_pc_].kind))
      ++sync_pc_;
    const SimTime at = sim::from_seconds(resume_clock);
    const SimTime delay = at > now() ? at - now() : 0;
    for (sim::ComponentId r : ranks_)
      schedule_to(r, kRollback, delay,
                  sim::box<RollbackCmd>({epoch_, pc}));
    schedule_next_fault();
  }

  /// Horizon exceeded: mark the run incomplete and drain. The epoch bump
  /// orphans in-flight rank events; no rollback or further fault is armed.
  void abandon(double clock_seconds) {
    result_.completed = false;
    result_.total_seconds = std::max(result_.total_seconds, clock_seconds);
    ++epoch_;
    done_ = true;
    simulation().request_stop();
  }

  /// Self-schedule the pending fault's detection event (at most one is in
  /// flight at any time; on_fault consumes it and resume() arms the next).
  void schedule_next_fault() {
    if (pending_.time >= inject::kNoFault) return;
    const SimTime at = sim::from_seconds(pending_.time + pending_.detect_after);
    // Priority -1: a fault at tick T pre-empts same-tick completions.
    schedule_self(at > now() ? at - now() : 0, nullptr, kFault, -1);
  }

  const PricedProgram* priced_;
  const AppBEO* app_;
  bool monte_carlo_;
  util::Rng rng_;
  std::vector<sim::ComponentId> ranks_;
  /// degree -> per-rank neighbour lists (see neighbors_for).
  std::map<int, std::vector<std::vector<std::int64_t>>> neighbor_cache_;
  NetworkBackend* network_ = nullptr;
  std::int64_t net_ranks_per_node_ = 1;
  std::size_t arrived_ = 0;
  std::size_t pending_deliveries_ = 0;
  std::size_t sync_pc_ = 0;
  int ts_done_ = 0;
  // --- injection state (inactive unless set_injection was called) ---
  bool injected_ = false;
  bool done_ = false;
  std::vector<ft::FaultEvent> schedule_;
  std::size_t sched_pos_ = 0;
  ft::FaultEvent pending_;
  std::uint64_t epoch_ = 0;
  inject::RecoveryLedger ledger_;
  inject::RecoveryParams recovery_;
};

}  // namespace

RunResult run_des(const AppBEO& app, const ArchBEO& arch,
                  const EngineOptions& options) {
  return run_des(PricedProgram(app, arch), options);
}

RunResult run_des(const PricedProgram& priced, const EngineOptions& options) {
  FTBESST_OBS_SPAN("core.run_des");
  const AppBEO& app = priced.app();
  const ArchBEO& arch = priced.arch();
  if (options.inject_faults && options.use_des_network)
    throw std::invalid_argument(
        "fault injection cannot run through the DES network substrate: "
        "in-flight flow deliveries cannot be rolled back");
  if (app.ranks() > arch.max_ranks())
    throw std::invalid_argument(
        "application ranks exceed architecture capacity");

  sim::Simulation simulation;
  util::Rng root(options.seed);

  // Fault schedule: pre-materialized from per-node splittable streams (or
  // taken verbatim from a replay trace), so it is a pure function of the
  // seed — independent of thread count and event interleaving. The node
  // universe is the coarse engine's (ArchBEO::fault_nodes).
  std::vector<ft::FaultEvent> schedule;
  if (options.inject_faults) {
    const std::int64_t fault_nodes = arch.fault_nodes(app.ranks());
    if (!options.fault_trace.empty()) {
      schedule = options.fault_trace;
      inject::validate_schedule(schedule, fault_nodes);
    } else {
      const ft::FaultProcess* crashes =
          arch.fault_process() ? &*arch.fault_process() : nullptr;
      const inject::SdcProcess* sdc =
          arch.sdc_process() ? &*arch.sdc_process() : nullptr;
      if (crashes == nullptr && sdc == nullptr)
        throw std::invalid_argument(
            "fault injection requested but ArchBEO has no fault process");
      schedule = inject::make_schedule(crashes, sdc, fault_nodes,
                                       options.max_sim_seconds,
                                       root.split(0xfa417u));
    }
  }

  auto* coord = simulation.add_component<Coordinator>(
      priced, options.monte_carlo, root.split(0xc0));

  std::unique_ptr<NetworkBackend> network;
  if (options.use_des_network) {
    if (const auto* fat_tree =
            dynamic_cast<const net::TwoStageFatTree*>(&arch.topology())) {
      network = std::make_unique<FatTreeBackend>(simulation, *fat_tree,
                                                 arch.comm().params());
    } else if (const auto* torus =
                   dynamic_cast<const net::Torus*>(&arch.topology())) {
      network = std::make_unique<TorusBackend>(simulation, *torus,
                                               arch.comm().params());
    } else {
      throw std::invalid_argument(
          "use_des_network requires a TwoStageFatTree or Torus topology");
    }
    // Ranks pack onto the fault node universe (ArchBEO::fault_nodes).
    const std::int64_t nodes_needed = arch.fault_nodes(app.ranks());
    if (nodes_needed > network->num_nodes())
      throw std::invalid_argument("too many ranks for the DES network");
    coord->set_network(network.get(), arch.ranks_per_fault_node(app.ranks()));
    // Every delivery notifies the coordinator at its arrival time.
    for (net::NodeId n = 0; n < nodes_needed; ++n)
      network->on_delivery(
          n, [&simulation, coord](const net::FlowMsg&, SimTime arrival) {
            simulation.schedule(sim::kNoComponent, coord->id(), kNetDone,
                                arrival, nullptr);
          });
  }

  // Symmetry folding: in a deterministic, analytically-routed run every
  // rank executes the same SPMD plan against the same architecture config
  // from an indistinguishable position, so one representative per
  // equivalence class stands for the whole class and the coordinator's
  // rendezvous shrinks from N arrivals to one per class — predictions are
  // bitwise identical, only the event count drops. Monte-Carlo mode gives
  // every rank its own RNG stream and the executed network substrate gives
  // every rank its own physical position; both break the symmetry, so the
  // specs are marked non-foldable there (each rank stays a singleton
  // class).
  //
  // Fault injection folds like a clean run: recovery is coordinated (every
  // rank rolls back to the same checkpoint at the same instant, the Fig. 3
  // semantics), so struck ranks never diverge from their class.
  const bool fold = options.fold_symmetry && !options.monte_carlo &&
                    !options.use_des_network;
  sim::FoldSpec rank_spec;
  rank_spec.signature = {"rank", app.plan_digest(), arch.fold_config_digest(),
                         fold};
  const sim::FoldPlan plan = sim::plan_folds(std::vector<sim::FoldSpec>(
      static_cast<std::size_t>(app.ranks()), rank_spec));

  std::vector<RankComponent*> ranks;
  std::vector<sim::ComponentId> rank_ids;
  ranks.reserve(plan.groups().size());
  for (const sim::FoldGroup& group : plan.groups()) {
    const auto r = static_cast<std::int64_t>(group.representative);
    auto* rc = simulation.add_component<RankComponent>(
        r, priced, options.monte_carlo,
        root.split(static_cast<std::uint64_t>(r) + 1));
    rc->set_coordinator(coord->id());
    rc->set_multiplicity(group.multiplicity());
    if (options.inject_faults) rc->enable_injection();
    ranks.push_back(rc);
    rank_ids.push_back(rc->id());
  }
  coord->set_ranks(std::move(rank_ids));
  if (options.inject_faults)
    coord->set_injection(std::move(schedule), options);

  priced.require_bound();
  const sim::SimStats stats = simulation.run();
  if (obs::enabled()) {
    static const obs::Counter runs = obs::counter("des.runs");
    static const obs::Counter events = obs::counter("des.events");
    static const obs::Counter folded = obs::counter("des.folded_ranks");
    static const obs::Gauge heap_hw = obs::gauge("des.heap_high_water");
    runs.add();
    events.add(stats.events_processed);
    folded.add(plan.folded_away());
    heap_hw.max(static_cast<double>(stats.heap_high_water));
  }

  RunResult result = std::move(coord->result_);
  for (const RankComponent* rc : ranks)
    result.instructions_executed +=
        rc->instructions_executed * rc->multiplicity();
  result.sim_events = stats.events_processed;
  return result;
}

}  // namespace ftbesst::core
