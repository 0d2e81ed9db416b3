#pragma once
// Component base class — the SST-style unit of simulated hardware/software.
//
// A component owns no threads and touches no global state; it reacts to
// events delivered by the Simulation and may schedule new events through the
// protected helpers. A component only ever mutates itself, so a simulation
// is a pure function of its components and their initial events.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "sim/event.hpp"
#include "sim/time.hpp"

namespace ftbesst::sim {

class Simulation;

class Component {
 public:
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  [[nodiscard]] ComponentId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Number of identical model entities this component stands for under
  /// symmetry folding. 1 for ordinary components; a fold
  /// representative carries its class's size and aggregate_counters() scales
  /// the component's counters by it, so folded and unfolded runs report
  /// identical totals.
  [[nodiscard]] std::uint64_t multiplicity() const noexcept {
    return multiplicity_;
  }
  void set_multiplicity(std::uint64_t m) noexcept {
    multiplicity_ = m > 0 ? m : 1;
  }

  /// Called once before the first event is processed.
  virtual void init() {}
  /// Called once after the simulation drains or reaches the horizon.
  virtual void finish() {}
  /// Deliver an event addressed to `port`. The payload may be null (pure
  /// timing events).
  virtual void handle_event(PortId port, std::unique_ptr<Payload> payload) = 0;

  /// SST-style named statistics: free-form counters a component bumps while
  /// simulating (messages forwarded, bytes moved, cache hits...). Counters
  /// are component-local and aggregated across the simulation via
  /// Simulation::aggregate_counters().
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters()
      const noexcept {
    return counters_;
  }

 protected:
  explicit Component(std::string name) : name_(std::move(name)) {}

  /// Current simulation time (valid inside init/handle_event).
  [[nodiscard]] SimTime now() const noexcept;

  /// Schedule an event back to this component after `delay` ticks.
  void schedule_self(SimTime delay, std::unique_ptr<Payload> payload = nullptr,
                     PortId port = 0, std::int32_t priority = 0);

  /// Send a payload out of `port` over its connected link; it arrives at the
  /// peer after the link latency plus `extra_delay`.
  void send(PortId port, std::unique_ptr<Payload> payload,
            SimTime extra_delay = 0, std::int32_t priority = 0);

  /// Direct cross-component scheduling (used by tightly-coupled subsystems
  /// that are not modeling a physical wire).
  void schedule_to(ComponentId dst, PortId port, SimTime delay,
                   std::unique_ptr<Payload> payload = nullptr,
                   std::int32_t priority = 0);

  [[nodiscard]] Simulation& simulation() const noexcept { return *sim_; }

  /// Bump a named statistic (creates it at zero on first use).
  void bump(const std::string& counter, std::uint64_t delta = 1) {
    counters_[counter] += delta;
  }

 private:
  friend class Simulation;
  Simulation* sim_ = nullptr;
  ComponentId id_ = kNoComponent;
  std::uint64_t multiplicity_ = 1;
  std::string name_;
  std::map<std::string, std::uint64_t> counters_;
  /// Wall-clock ns spent in handle_event, accumulated by Simulation::dispatch
  /// only while obs is enabled and folded into the obs registry (counter
  /// "sim.busy_ns.<name sans trailing digits>") at the end of each run.
  std::uint64_t obs_busy_ns_ = 0;
};

}  // namespace ftbesst::sim
