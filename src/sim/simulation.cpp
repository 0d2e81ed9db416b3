#include "sim/simulation.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"

namespace ftbesst::sim {

namespace {
SimTime saturating_add(SimTime a, SimTime b) noexcept {
  return (kNever - a < b) ? kNever : a + b;
}

struct SimMetrics {
  obs::Counter events = obs::counter("sim.events");
  obs::Gauge heap_high_water = obs::gauge("sim.heap_high_water");
};

SimMetrics& sim_metrics() {
  static SimMetrics m;
  return m;
}

// Group per-component busy time by component *kind*: trailing instance
// digits (and any separator left dangling) are stripped, so "rank0".."rank7"
// all fold into "sim.busy_ns.rank".
std::string busy_counter_name(const std::string& component_name) {
  std::string_view base = component_name;
  while (!base.empty() && base.back() >= '0' && base.back() <= '9')
    base.remove_suffix(1);
  while (!base.empty() &&
         (base.back() == '_' || base.back() == '.' || base.back() == '-'))
    base.remove_suffix(1);
  if (base.empty()) base = component_name;
  return "sim.busy_ns." + std::string(base);
}
}  // namespace

void Simulation::register_component(std::unique_ptr<Component> component) {
  if (running_) throw std::logic_error("cannot add components while running");
  component->sim_ = this;
  component->id_ = static_cast<ComponentId>(components_.size());
  components_.push_back(std::move(component));
  port_links_.emplace_back();
  src_seq_.push_back(0);
}

Component& Simulation::component(ComponentId id) {
  return *components_.at(id);
}

std::uint64_t counter_value(const CounterTotals& totals,
                            std::string_view name) {
  const auto it = std::lower_bound(
      totals.begin(), totals.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it == totals.end() || it->first != name)
    throw std::out_of_range("no such counter: " + std::string(name));
  return it->second;
}

CounterTotals Simulation::aggregate_counters() const {
  CounterTotals totals;
  for (const auto& component : components_) {
    const std::uint64_t mult = component->multiplicity();
    for (const auto& [name, value] : component->counters())
      totals.emplace_back(name, value * mult);
  }
  std::sort(totals.begin(), totals.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Sum duplicates in place (same counter bumped by several components).
  std::size_t out = 0;
  for (std::size_t i = 0; i < totals.size(); ++i) {
    if (out > 0 && totals[out - 1].first == totals[i].first) {
      totals[out - 1].second += totals[i].second;
    } else {
      if (out != i) totals[out] = std::move(totals[i]);
      ++out;
    }
  }
  totals.resize(out);
  return totals;
}

void Simulation::connect(ComponentId a, PortId port_a, ComponentId b,
                         PortId port_b, SimTime latency) {
  if (a >= components_.size() || b >= components_.size())
    throw std::out_of_range("connect: unknown component");
  const auto link_index = static_cast<std::int64_t>(links_.size());
  links_.push_back(Link{a, port_a, b, port_b, latency});
  auto attach = [&](ComponentId c, PortId p) {
    auto& ports = port_links_[c];
    if (ports.size() <= p) ports.resize(p + 1, -1);
    if (ports[p] != -1)
      throw std::logic_error("connect: port already connected on " +
                             components_[c]->name());
    ports[p] = link_index;
  };
  attach(a, port_a);
  attach(b, port_b);
}

void Simulation::schedule(ComponentId src, ComponentId dst, PortId port,
                          SimTime time, std::unique_ptr<Payload> payload,
                          std::int32_t priority) {
  if (dst >= components_.size())
    throw std::out_of_range("schedule: unknown destination");
  Event ev;
  ev.time = time;
  ev.priority = priority;
  ev.src = src;
  ev.src_seq = (src == kNoComponent) ? src_seq_[dst]++ : src_seq_[src]++;
  ev.dst = dst;
  ev.port = port;
  ev.payload = std::move(payload);
  queue_.push(std::move(ev));
}

void Simulation::send_on_port(ComponentId src, PortId port,
                              SimTime extra_delay,
                              std::unique_ptr<Payload> payload,
                              std::int32_t priority) {
  const auto& ports = port_links_.at(src);
  if (port >= ports.size() || ports[port] == -1)
    throw std::logic_error("send on unconnected port of " +
                           components_[src]->name());
  const Link& link = links_[static_cast<std::size_t>(ports[port])];
  const ComponentId dst = (link.a == src && link.port_a == port) ? link.b : link.a;
  const PortId dst_port =
      (link.a == src && link.port_a == port) ? link.port_b : link.port_a;
  const SimTime when =
      saturating_add(now_, saturating_add(link.latency, extra_delay));
  schedule(src, dst, dst_port, when, std::move(payload), priority);
}

void Simulation::init_components() {
  if (initialized_) return;  // resuming a paused run must not re-init
  initialized_ = true;
  for (auto& c : components_) c->init();
}

void Simulation::finish_components() {
  for (auto& c : components_) c->finish();
}

void Simulation::dispatch(Event& ev, std::uint64_t& counter) {
  now_ = ev.time;
  Component& dst = *components_[ev.dst];
  if (obs::enabled()) {
    const std::uint64_t t0 = obs::now_ns();
    dst.handle_event(ev.port, std::move(ev.payload));
    dst.obs_busy_ns_ += obs::now_ns() - t0;
  } else {
    dst.handle_event(ev.port, std::move(ev.payload));
  }
  ++counter;
}

void Simulation::fold_obs_stats(const SimStats& stats) {
  if (!obs::enabled()) {
    // Keep the accumulators clean even if obs was switched off mid-run.
    for (auto& c : components_) c->obs_busy_ns_ = 0;
    return;
  }
  SimMetrics& m = sim_metrics();
  m.events.add(stats.events_processed);
  m.heap_high_water.max(static_cast<double>(stats.heap_high_water));
  for (auto& c : components_) {
    if (c->obs_busy_ns_ == 0) continue;
    // Registration is idempotent and cold (once per component per run end).
    obs::counter(busy_counter_name(c->name())).add(c->obs_busy_ns_);
    c->obs_busy_ns_ = 0;
  }
}

SimStats Simulation::run(SimTime until) {
  SimStats stats;
  running_ = true;
  stop_requested_ = false;
  init_components();
  while (!queue_.empty() && !stop_requested()) {
    if (queue_.top().time > until) break;
    stats.heap_high_water =
        std::max<std::uint64_t>(stats.heap_high_water, queue_.size());
    Event ev = queue_.pop();
    dispatch(ev, stats.events_processed);
  }
  stats.end_time = now_;
  running_ = false;
  finish_components();
  events_processed_ += stats.events_processed;
  fold_obs_stats(stats);
  return stats;
}

}  // namespace ftbesst::sim
