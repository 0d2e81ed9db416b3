// The multiplicity-scaled counter aggregation contract of symmetry
// folding: a folded representative's counters count for its whole class.

#include <gtest/gtest.h>

#include <string>

#include "sim/simulation.hpp"

namespace ftbesst::sim {
namespace {

/// Counter-scaling contract: aggregate_counters multiplies each
/// representative's counters by its multiplicity.
class Counting final : public Component {
 public:
  explicit Counting(std::string name) : Component(std::move(name)) {}
  void init() override { schedule_self(1); }
  void handle_event(PortId, std::unique_ptr<Payload>) override {
    bump("ticks");
    bump("bytes", 100);
  }
};

TEST(FoldCounters, AggregationScalesByMultiplicity) {
  Simulation sim;
  auto* rep = sim.add_component<Counting>("rep");
  auto* lone = sim.add_component<Counting>("lone");
  rep->set_multiplicity(12);  // stands for 12 physical components
  sim.run();
  const CounterTotals counters = sim.aggregate_counters();
  EXPECT_EQ(counter_value(counters, "ticks"), 13u);    // 12 + 1
  EXPECT_EQ(counter_value(counters, "bytes"), 1300u);  // 12*100 + 100
  EXPECT_EQ(lone->multiplicity(), 1u);
}

}  // namespace
}  // namespace ftbesst::sim
