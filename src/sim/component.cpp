#include "sim/component.hpp"

#include "sim/simulation.hpp"

namespace ftbesst::sim {

SimTime Component::now() const noexcept { return sim_->now(); }

void Component::schedule_self(SimTime delay, std::unique_ptr<Payload> payload,
                              PortId port, std::int32_t priority) {
  sim_->schedule(id_, id_, port, now() + delay, std::move(payload), priority);
}

void Component::send(PortId port, std::unique_ptr<Payload> payload,
                     SimTime extra_delay, std::int32_t priority) {
  sim_->send_on_port(id_, port, extra_delay, std::move(payload), priority);
}

void Component::schedule_to(ComponentId dst, PortId port, SimTime delay,
                            std::unique_ptr<Payload> payload,
                            std::int32_t priority) {
  sim_->schedule(id_, dst, port, now() + delay, std::move(payload), priority);
}

}  // namespace ftbesst::sim
