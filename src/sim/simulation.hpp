#pragma once
// The simulation kernel: component registry, links, the event queue and the
// serial execution engine. Events run in a strict total order — (time,
// priority, source component, per-source sequence) — so a simulation is a
// pure function of its model: any number of Simulations may run at once on
// different threads (util::TaskPool spreads trials and cells that way) and
// each reproduces bit-identically. Each Simulation owns its queue and its
// clock; the only per-thread state is the payload freelist.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/component.hpp"
#include "sim/event.hpp"
#include "sim/event_heap.hpp"
#include "sim/time.hpp"

namespace ftbesst::sim {

/// A bidirectional point-to-point link between two component ports.
struct Link {
  ComponentId a = kNoComponent;
  PortId port_a = 0;
  ComponentId b = kNoComponent;
  PortId port_b = 0;
  SimTime latency = 0;
};

/// Aggregated component counters, sorted by name (built once per call
/// instead of rebuilding a std::map node-by-node; benches aggregate per
/// run). Look values up with counter_value(). Counters of a fold
/// representative are scaled by its multiplicity, so folded and unfolded
/// models aggregate to identical totals.
using CounterTotals = std::vector<std::pair<std::string, std::uint64_t>>;

/// Value of `name` in sorted `totals` (binary search). Throws
/// std::out_of_range when the counter does not exist.
[[nodiscard]] std::uint64_t counter_value(const CounterTotals& totals,
                                          std::string_view name);

/// Aggregate run statistics.
struct SimStats {
  std::uint64_t events_processed = 0;
  /// Deepest event queue observed during the run — the working-set measure
  /// the DES heap is sized by.
  std::uint64_t heap_high_water = 0;
  SimTime end_time = 0;  ///< Simulation::now() when the run stopped
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Construct and register a component. Returns a non-owning pointer valid
  /// for the simulation's lifetime.
  template <typename T, typename... Args>
  T* add_component(Args&&... args) {
    auto owned = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = owned.get();
    register_component(std::move(owned));
    return raw;
  }

  /// Connect two component ports with a link of the given latency.
  /// Latency 0 is allowed.
  void connect(ComponentId a, PortId port_a, ComponentId b, PortId port_b,
               SimTime latency);

  [[nodiscard]] Component& component(ComponentId id);
  [[nodiscard]] std::size_t component_count() const noexcept {
    return components_.size();
  }

  /// Sum of every component's named counters (SST-style statistics
  /// aggregation), each scaled by the component's fold multiplicity. Call
  /// after run().
  [[nodiscard]] CounterTotals aggregate_counters() const;

  /// Total events dispatched over this simulation's lifetime (all runs).
  [[nodiscard]] std::uint64_t lifetime_events() const noexcept {
    return events_processed_;
  }

  /// Run until the event queue drains or the next event lies beyond
  /// `until`. Events later than `until` stay queued; a later run() resumes
  /// from them.
  SimStats run(SimTime until = kNever);

  /// The simulation clock: the timestamp of the event being (or last)
  /// dispatched, 0 before the first one.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Request an early stop: the engine finishes the current event and halts.
  void request_stop() noexcept { stop_requested_ = true; }
  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_requested_;
  }

  // -- scheduling interface (used by Component helpers; public so that test
  //    drivers can inject external stimuli) --
  void schedule(ComponentId src, ComponentId dst, PortId port, SimTime time,
                std::unique_ptr<Payload> payload, std::int32_t priority = 0);
  void send_on_port(ComponentId src, PortId port, SimTime extra_delay,
                    std::unique_ptr<Payload> payload, std::int32_t priority);

 private:
  void register_component(std::unique_ptr<Component> component);
  void init_components();
  void finish_components();
  void dispatch(Event& ev, std::uint64_t& counter);
  /// Fold run totals and per-component busy time into the obs registry
  /// (no-op while obs is disabled); clears the per-component accumulators.
  void fold_obs_stats(const SimStats& stats);

  std::vector<std::unique_ptr<Component>> components_;
  std::vector<Link> links_;
  /// links_by_port_[component][port] -> link index (resolved lazily).
  std::vector<std::vector<std::int64_t>> port_links_;
  std::vector<std::uint64_t> src_seq_;  // per-component schedule counter

  EventHeap queue_;
  SimTime now_ = 0;  ///< set by dispatch(); read by Component::now()
  bool initialized_ = false;
  bool running_ = false;
  bool stop_requested_ = false;
  std::uint64_t events_processed_ = 0;
};

}  // namespace ftbesst::sim
