// Edge-case coverage for the DES kernel beyond the core behaviour tests:
// priority tie-breaks, payload ergonomics, and misuse errors.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulation.hpp"

namespace ftbesst::sim {
namespace {

TEST(SimEdge, PriorityBreaksSimultaneousLinkDeliveries) {
  class Sink final : public Component {
   public:
    Sink() : Component("sink") {}
    void handle_event(PortId, std::unique_ptr<Payload> p) override {
      if (auto* v = unbox<int>(p.get())) order.push_back(*v);
    }
    std::vector<int> order;
  };
  Simulation sim;
  auto* sink = sim.add_component<Sink>();
  // Two events, same timestamp, opposite priority to insertion order.
  sim.schedule(kNoComponent, sink->id(), 0, SimTime{10}, box<int>(2), 5);
  sim.schedule(kNoComponent, sink->id(), 0, SimTime{10}, box<int>(1), -5);
  sim.run();
  EXPECT_EQ(sink->order, (std::vector<int>{1, 2}));
}

TEST(SimEdge, MoveOnlyPayloadsWork) {
  class Taker final : public Component {
   public:
    Taker() : Component("taker") {}
    void handle_event(PortId, std::unique_ptr<Payload> p) override {
      if (auto* v = unbox<std::unique_ptr<int>>(p.get()))
        value = **v;
    }
    int value = 0;
  };
  Simulation sim;
  auto* taker = sim.add_component<Taker>();
  sim.schedule(kNoComponent, taker->id(), 0, SimTime{1},
               box(std::make_unique<int>(77)));
  sim.run();
  EXPECT_EQ(taker->value, 77);
}

TEST(SimEdge, AddComponentWhileRunningThrows) {
  class Adder final : public Component {
   public:
    Adder() : Component("adder") {}
    void init() override { schedule_self(1); }
    void handle_event(PortId, std::unique_ptr<Payload>) override {
      simulation().add_component<Adder>();
    }
  };
  Simulation sim;
  sim.add_component<Adder>();
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(SimEdge, ScheduleToUnknownComponentThrows) {
  Simulation sim;
  EXPECT_THROW(sim.schedule(kNoComponent, 5, 0, SimTime{1}, nullptr),
               std::out_of_range);
}

}  // namespace
}  // namespace ftbesst::sim
