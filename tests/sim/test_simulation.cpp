#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ftbesst::sim {
namespace {

/// Records (time, port, value) triples for assertions.
class Recorder final : public Component {
 public:
  explicit Recorder(std::string name) : Component(std::move(name)) {}

  void handle_event(PortId port, std::unique_ptr<Payload> payload) override {
    int value = -1;
    if (payload)
      if (auto* v = unbox<int>(payload.get())) value = *v;
    log.push_back({now(), port, value});
  }

  struct Entry {
    SimTime time;
    PortId port;
    int value;
  };
  std::vector<Entry> log;
};

/// Sends `count` pings on port 0, spaced `interval` apart.
class Pinger final : public Component {
 public:
  Pinger(std::string name, int count, SimTime interval)
      : Component(std::move(name)), count_(count), interval_(interval) {}

  void init() override { schedule_self(interval_); }

  void handle_event(PortId, std::unique_ptr<Payload>) override {
    send(0, box<int>(sent_));
    if (++sent_ < count_) schedule_self(interval_);
  }

 private:
  int count_;
  SimTime interval_;
  int sent_ = 0;
};

TEST(Simulation, DeliversLinkedEventWithLatency) {
  Simulation sim;
  auto* pinger = sim.add_component<Pinger>("ping", 1, SimTime{10});
  auto* recorder = sim.add_component<Recorder>("rec");
  sim.connect(pinger->id(), 0, recorder->id(), 0, SimTime{5});
  const SimStats stats = sim.run();
  ASSERT_EQ(recorder->log.size(), 1u);
  EXPECT_EQ(recorder->log[0].time, 15u);  // 10 (self) + 5 (link)
  EXPECT_EQ(recorder->log[0].value, 0);
  EXPECT_EQ(stats.events_processed, 2u);  // self-wake + delivery
}

TEST(Simulation, MultiplePingsArriveInOrder) {
  Simulation sim;
  auto* pinger = sim.add_component<Pinger>("ping", 5, SimTime{10});
  auto* recorder = sim.add_component<Recorder>("rec");
  sim.connect(pinger->id(), 0, recorder->id(), 0, SimTime{3});
  sim.run();
  ASSERT_EQ(recorder->log.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(recorder->log[i].value, i);
    EXPECT_EQ(recorder->log[i].time, SimTime{10} * (i + 1) + 3);
  }
}

TEST(Simulation, RunUntilHorizonLeavesLaterEventsQueued) {
  Simulation sim;
  auto* pinger = sim.add_component<Pinger>("ping", 10, SimTime{10});
  auto* recorder = sim.add_component<Recorder>("rec");
  sim.connect(pinger->id(), 0, recorder->id(), 0, SimTime{0});
  sim.run(SimTime{35});
  EXPECT_EQ(recorder->log.size(), 3u);  // t=10,20,30
  // Resuming processes the rest.
  sim.run();
  EXPECT_EQ(recorder->log.size(), 10u);
}

// Each Simulation keeps its own clock: a run paused at a horizon reports
// the same end time and now() whether or not another Simulation ran on the
// same thread in between.
TEST(Simulation, PausedRunClockIgnoresOtherSimulations) {
  class Ticker final : public Component {
   public:
    Ticker(int ticks, SimTime interval)
        : Component("ticker"), ticks_(ticks), interval_(interval) {}
    void init() override { schedule_self(interval_); }
    void handle_event(PortId, std::unique_ptr<Payload>) override {
      if (++count_ < ticks_) schedule_self(interval_);
    }

   private:
    int ticks_;
    SimTime interval_;
    int count_ = 0;
  };
  auto pause_twice = [](bool interleave) {
    Simulation sim;
    sim.add_component<Ticker>(3, SimTime{100});  // t = 100, 200, 300
    sim.run(SimTime{150});
    if (interleave) {
      Simulation other;
      other.add_component<Ticker>(1, SimTime{1000});
      EXPECT_EQ(other.run().end_time, SimTime{1000});
    }
    const SimStats stats = sim.run(SimTime{150});
    return std::pair{stats.end_time, sim.now()};
  };
  const auto alone = pause_twice(false);
  EXPECT_EQ(alone.first, SimTime{100});
  EXPECT_EQ(alone.second, SimTime{100});
  EXPECT_EQ(pause_twice(true), alone);
}

TEST(Simulation, SamePortBidirectionalLink) {
  // Two recorders wired together; inject one event each way.
  Simulation sim;
  auto* a = sim.add_component<Recorder>("a");
  auto* b = sim.add_component<Recorder>("b");
  sim.connect(a->id(), 0, b->id(), 0, SimTime{7});
  sim.schedule(kNoComponent, a->id(), 0, SimTime{1}, box<int>(100));
  sim.schedule(kNoComponent, b->id(), 0, SimTime{2}, box<int>(200));
  sim.run();
  ASSERT_EQ(a->log.size(), 1u);
  ASSERT_EQ(b->log.size(), 1u);
  EXPECT_EQ(a->log[0].value, 100);
  EXPECT_EQ(b->log[0].value, 200);
}

TEST(Simulation, TieBreakByPriorityThenSource) {
  Simulation sim;
  auto* rec = sim.add_component<Recorder>("rec");
  // Same timestamp, different priorities: lower priority value first.
  sim.schedule(kNoComponent, rec->id(), 1, SimTime{5}, box<int>(2), /*prio=*/1);
  sim.schedule(kNoComponent, rec->id(), 2, SimTime{5}, box<int>(1), /*prio=*/0);
  sim.run();
  ASSERT_EQ(rec->log.size(), 2u);
  EXPECT_EQ(rec->log[0].value, 1);
  EXPECT_EQ(rec->log[1].value, 2);
}

TEST(Simulation, FifoAmongEqualKeys) {
  Simulation sim;
  auto* rec = sim.add_component<Recorder>("rec");
  for (int i = 0; i < 10; ++i)
    sim.schedule(kNoComponent, rec->id(), 0, SimTime{5}, box<int>(i));
  sim.run();
  ASSERT_EQ(rec->log.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rec->log[i].value, i);
}

TEST(Simulation, SendOnUnconnectedPortThrows) {
  class BadSender final : public Component {
   public:
    BadSender() : Component("bad") {}
    void init() override { schedule_self(1); }
    void handle_event(PortId, std::unique_ptr<Payload>) override {
      send(3, nullptr);
    }
  };
  Simulation sim;
  sim.add_component<BadSender>();
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulation, DoubleConnectSamePortThrows) {
  Simulation sim;
  auto* a = sim.add_component<Recorder>("a");
  auto* b = sim.add_component<Recorder>("b");
  auto* c = sim.add_component<Recorder>("c");
  sim.connect(a->id(), 0, b->id(), 0, 1);
  EXPECT_THROW(sim.connect(a->id(), 0, c->id(), 0, 1), std::logic_error);
}

TEST(Simulation, ConnectUnknownComponentThrows) {
  Simulation sim;
  auto* a = sim.add_component<Recorder>("a");
  EXPECT_THROW(sim.connect(a->id(), 0, 42, 0, 1), std::out_of_range);
}

TEST(Simulation, StopRequestHaltsEarly) {
  class Stopper final : public Component {
   public:
    Stopper() : Component("stopper") {}
    void init() override { schedule_self(1); }
    void handle_event(PortId, std::unique_ptr<Payload>) override {
      if (++count == 3) simulation().request_stop();
      schedule_self(1);
    }
    int count = 0;
  };
  Simulation sim;
  auto* s = sim.add_component<Stopper>();
  sim.run(SimTime{1000});
  EXPECT_EQ(s->count, 3);
}

TEST(Simulation, InitAndFinishHooksRunOnce) {
  class Hooked final : public Component {
   public:
    Hooked() : Component("hooked") {}
    void init() override { ++inits; }
    void finish() override { ++finishes; }
    void handle_event(PortId, std::unique_ptr<Payload>) override {}
    int inits = 0;
    int finishes = 0;
  };
  Simulation sim;
  auto* h = sim.add_component<Hooked>();
  sim.run();
  EXPECT_EQ(h->inits, 1);
  EXPECT_EQ(h->finishes, 1);
}

TEST(Simulation, UnboxTypeMismatchReturnsNull) {
  auto p = box<int>(1);
  EXPECT_EQ(unbox<double>(p.get()), nullptr);
  EXPECT_NE(unbox<int>(p.get()), nullptr);
}

TEST(SimTimeConversions, RoundTripAndClamping) {
  EXPECT_EQ(from_seconds(1.0), kNsPerSec);
  EXPECT_EQ(from_seconds(0.0), 0u);
  EXPECT_EQ(from_seconds(-1.0), 0u);
  EXPECT_DOUBLE_EQ(to_seconds(kNsPerSec), 1.0);
  EXPECT_EQ(from_seconds(1.5e-9), 2u);  // rounds half-up
  EXPECT_EQ(from_seconds(1e18), kNever);  // clamps
}

class ChainLengthSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChainLengthSweep, EventCountMatchesChainLength) {
  // A chain of N forwarders; one event traverses the whole chain.
  class Forwarder final : public Component {
   public:
    explicit Forwarder(bool last) : Component("fwd"), last_(last) {}
    void handle_event(PortId, std::unique_ptr<Payload> p) override {
      if (!last_) send(1, std::move(p));
    }

   private:
    bool last_;
  };
  const int n = GetParam();
  Simulation sim;
  std::vector<Forwarder*> comps;
  for (int i = 0; i < n; ++i)
    comps.push_back(sim.add_component<Forwarder>(i == n - 1));
  for (int i = 0; i + 1 < n; ++i)
    sim.connect(comps[i]->id(), 1, comps[i + 1]->id(), 0, SimTime{2});
  sim.schedule(kNoComponent, comps[0]->id(), 0, SimTime{0}, nullptr);
  const SimStats stats = sim.run();
  EXPECT_EQ(stats.events_processed, static_cast<std::uint64_t>(n));
  EXPECT_EQ(stats.end_time, SimTime{2} * (n - 1));
}

INSTANTIATE_TEST_SUITE_P(Chains, ChainLengthSweep,
                         ::testing::Values(2, 3, 10, 100));

}  // namespace
}  // namespace ftbesst::sim
