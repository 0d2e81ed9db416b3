// Symmetry-fold planning: equivalence classes across every signature axis
// (type, behaviour digest, config digest, foldable flag), link-signature
// isomorphism via colour refinement, clone-on-divergence, and the
// multiplicity-scaled counter aggregation contract.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/fold.hpp"
#include "sim/simulation.hpp"

namespace ftbesst::sim {
namespace {

FoldSpec rank_spec(std::uint64_t behavior = 1, std::uint64_t config = 2,
                   const std::string& type = "rank") {
  FoldSpec s;
  s.signature.type = type;
  s.signature.behavior_digest = behavior;
  s.signature.config_digest = config;
  return s;
}

TEST(FoldPlan, IdenticalSpecsCollapseToOneGroup) {
  const FoldPlan plan = plan_folds(std::vector<FoldSpec>(6, rank_spec()));
  ASSERT_EQ(plan.groups().size(), 1u);
  EXPECT_EQ(plan.groups()[0].representative, 0u);
  EXPECT_EQ(plan.groups()[0].multiplicity(), 6u);
  EXPECT_EQ(plan.folded_away(), 5u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(plan.group_of(i), 0u);
    EXPECT_EQ(plan.representative_of(i), 0u);
    EXPECT_EQ(plan.is_representative(i), i == 0);
    EXPECT_EQ(plan.multiplicity_of(i), 6u);
  }
}

TEST(FoldPlan, EverySignatureAxisSeparatesClasses) {
  // 0,1 identical; 2 differs in type; 3 in behaviour (the AppBEO plan);
  // 4 in config (the FTI layout); 5 is marked divergent.
  std::vector<FoldSpec> specs(6, rank_spec());
  specs[2].signature.type = "nic";
  specs[3].signature.behavior_digest = 99;
  specs[4].signature.config_digest = 99;
  specs[5].signature.foldable = false;
  const FoldPlan plan = plan_folds(specs);
  ASSERT_EQ(plan.groups().size(), 5u);
  EXPECT_EQ(plan.group_of(0), plan.group_of(1));
  EXPECT_NE(plan.group_of(2), plan.group_of(0));
  EXPECT_NE(plan.group_of(3), plan.group_of(0));
  EXPECT_NE(plan.group_of(4), plan.group_of(0));
  EXPECT_NE(plan.group_of(5), plan.group_of(0));
  EXPECT_EQ(plan.multiplicity_of(0), 2u);
  EXPECT_EQ(plan.multiplicity_of(5), 1u);
}

TEST(FoldPlan, NonFoldableSpecsNeverMergeWithEachOther) {
  std::vector<FoldSpec> specs(4, rank_spec());
  for (FoldSpec& s : specs) s.signature.foldable = false;
  const FoldPlan plan = plan_folds(specs);
  EXPECT_EQ(plan.groups().size(), 4u);  // identical but pinned: singletons
  // Poisoning preserves the input order exactly (group i = spec i), which
  // is what keeps an unfolded engine build bit-identical to pre-fold code.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(plan.group_of(i), i);
}

TEST(FoldPlan, LinkSignatureSeparatesClasses) {
  // Two symmetric pairs wired with different latencies: {0,1} at 5 ticks,
  // {2,3} at 7 ticks. Same signatures everywhere — only the link metadata
  // distinguishes them.
  std::vector<FoldSpec> specs(4, rank_spec());
  auto wire = [&](std::size_t a, std::size_t b, SimTime latency) {
    specs[a].links.push_back(FoldEndpoint{0, 1, latency, b});
    specs[b].links.push_back(FoldEndpoint{1, 0, latency, a});
  };
  wire(0, 1, 5);
  wire(2, 3, 7);
  const FoldPlan plan = plan_folds(specs);
  ASSERT_EQ(plan.groups().size(), 4u);  // port asymmetry splits each pair
  // Re-wire symmetrically (same port both sides): pairs fold, latency
  // still separates the two pairs.
  for (FoldSpec& s : specs) s.links.clear();
  auto wire_sym = [&](std::size_t a, std::size_t b, SimTime latency) {
    specs[a].links.push_back(FoldEndpoint{0, 0, latency, b});
    specs[b].links.push_back(FoldEndpoint{0, 0, latency, a});
  };
  wire_sym(0, 1, 5);
  wire_sym(2, 3, 7);
  const FoldPlan sym = plan_folds(specs);
  ASSERT_EQ(sym.groups().size(), 2u);
  EXPECT_EQ(sym.group_of(0), sym.group_of(1));
  EXPECT_EQ(sym.group_of(2), sym.group_of(3));
  EXPECT_NE(sym.group_of(0), sym.group_of(2));
}

TEST(FoldPlan, ColourRefinementPropagatesAsymmetryTransitively) {
  // A 4-chain 0-1-2-3 with uniform links: ends {0,3} and middles {1,2}
  // differ by degree; no spec is individually marked. 1-WL must find the
  // two orbits.
  std::vector<FoldSpec> specs(4, rank_spec());
  auto wire = [&](std::size_t a, std::size_t b) {
    specs[a].links.push_back(FoldEndpoint{0, 0, 3, b});
    specs[b].links.push_back(FoldEndpoint{0, 0, 3, a});
  };
  wire(0, 1);
  wire(1, 2);
  wire(2, 3);
  const FoldPlan plan = plan_folds(specs);
  ASSERT_EQ(plan.groups().size(), 2u);
  EXPECT_EQ(plan.group_of(0), plan.group_of(3));
  EXPECT_EQ(plan.group_of(1), plan.group_of(2));
  EXPECT_NE(plan.group_of(0), plan.group_of(1));
}

TEST(FoldPlan, PeerIndexOutOfRangeThrows) {
  std::vector<FoldSpec> specs(2, rank_spec());
  specs[0].links.push_back(FoldEndpoint{0, 0, 1, 7});
  EXPECT_THROW((void)plan_folds(specs), std::invalid_argument);
}

TEST(FoldDigest, DistinguishesBitPatterns) {
  EXPECT_NE(fold_digest_f64(kFoldDigestSeed, 0.0),
            fold_digest_f64(kFoldDigestSeed, -0.0));
  EXPECT_NE(fold_digest_string(kFoldDigestSeed, "ab"),
            fold_digest_string(kFoldDigestSeed, "ba"));
  EXPECT_EQ(fold_digest_u64(kFoldDigestSeed, 42),
            fold_digest_u64(kFoldDigestSeed, 42));
}

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
