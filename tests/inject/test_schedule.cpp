// The lazy fault stream: determinism, per-node independence, ordering,
// skipping by next(from), replay validation, and the SDC process.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "inject/ledger.hpp"
#include "inject/schedule.hpp"

namespace ftbesst::inject {
namespace {

/// Every event of `stream`, in order (nothing lies before t = 0).
std::vector<ft::FaultEvent> drain(FaultStream stream) {
  std::vector<ft::FaultEvent> events;
  for (ft::FaultEvent ev = stream.next(0.0); ev.time < kNoFault;
       ev = stream.next(0.0))
    events.push_back(ev);
  return events;
}

bool same_event(const ft::FaultEvent& a, const ft::FaultEvent& b) {
  return a.time == b.time && a.node == b.node && a.kind == b.kind &&
         a.detect_after == b.detect_after;
}

TEST(Schedule, PureFunctionOfSeedAndArguments) {
  const ft::FaultProcess crashes(50.0, 0.5);
  const SdcProcess sdc(80.0, 4.0);
  const util::Rng root(7);
  const auto a = drain(FaultStream(&crashes, &sdc, 8, 1000.0, root));
  const auto b = drain(FaultStream(&crashes, &sdc, 8, 1000.0, root));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(same_event(a[i], b[i])) << i;
  const auto c = drain(FaultStream(&crashes, &sdc, 8, 1000.0, util::Rng(8)));
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].time != c[i].time || a[i].node != c[i].node;
  EXPECT_TRUE(differs);
}

TEST(Schedule, PerNodeStreamsAreHorizonAndNeighborIndependent) {
  // Node n's events depend only on root.split(2n)/split(2n+1): dropping
  // other nodes or extending the horizon never perturbs what node 0 sees.
  const ft::FaultProcess crashes(50.0, 1.0);
  const util::Rng root(11);
  const auto one = drain(FaultStream(&crashes, nullptr, 1, 500.0, root));
  const auto many = drain(FaultStream(&crashes, nullptr, 4, 500.0, root));
  std::vector<ft::FaultEvent> node0;
  for (const auto& ev : many)
    if (ev.node == 0) node0.push_back(ev);
  ASSERT_EQ(node0.size(), one.size());
  for (std::size_t i = 0; i < one.size(); ++i)
    EXPECT_EQ(one[i].time, node0[i].time);
  const auto longer = drain(FaultStream(&crashes, nullptr, 1, 1000.0, root));
  ASSERT_GE(longer.size(), one.size());
  for (std::size_t i = 0; i < one.size(); ++i)
    EXPECT_EQ(longer[i].time, one[i].time);
  // A node's crash stream is the renewal process of a 1-node machine, drawn
  // in FaultProcess::sample's order (interval, node, loss) from split(0).
  util::Rng rng = root.split(0);
  const auto sampled = crashes.sample(1, 500.0, rng);
  ASSERT_EQ(sampled.size(), one.size());
  for (std::size_t i = 0; i < one.size(); ++i)
    EXPECT_TRUE(same_event(sampled[i], one[i])) << i;
}

TEST(Schedule, TimeOrderedWithEventsInsideHorizon) {
  const ft::FaultProcess crashes(20.0, 0.3);
  const SdcProcess sdc(30.0);
  const auto events =
      drain(FaultStream(&crashes, &sdc, 5, 400.0, util::Rng(3)));
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, 0.0);
    EXPECT_LT(events[i].time, 400.0);
    EXPECT_GE(events[i].node, 0);
    EXPECT_LT(events[i].node, 5);
    if (i > 0) {
      EXPECT_LE(events[i - 1].time, events[i].time);
    }
  }
  EXPECT_NO_THROW(validate_schedule(events, 5));
}

TEST(Schedule, ArgumentValidation) {
  const ft::FaultProcess crashes(50.0);
  const util::Rng root(1);
  EXPECT_THROW(FaultStream(&crashes, nullptr, 0, 10.0, root),
               std::invalid_argument);
  EXPECT_THROW(FaultStream(&crashes, nullptr, 2, -1.0, root),
               std::invalid_argument);
  EXPECT_THROW(FaultStream(&crashes, nullptr, 2,
                           std::numeric_limits<double>::infinity(), root),
               std::invalid_argument);
  // Both processes off is a legal (empty) stream.
  EXPECT_TRUE(drain(FaultStream(nullptr, nullptr, 2, 10.0, root)).empty());
}

TEST(Schedule, NextWithJumpsIsTheFilteredDrain) {
  // next(from) returns the first not-yet-consumed event at or after
  // `from`; everything it passes over is gone for good. Jumping ahead by
  // random strides must therefore return exactly the full drain filtered
  // that way, for the sampled stream and for its replay alike.
  const ft::FaultProcess crashes(40.0, 0.5, 0.7);
  const SdcProcess sdc(60.0, 3.0);
  const util::Rng root(23);
  const auto all = drain(FaultStream(&crashes, &sdc, 6, 2000.0, root));
  ASSERT_GT(all.size(), 100u);
  FaultStream sampled(&crashes, &sdc, 6, 2000.0, root);
  FaultStream replayed(all, 6);
  util::Rng jumps(5);
  std::size_t cursor = 0;  // first event of `all` not consumed yet
  double from = 0.0;
  for (int step = 0; step < 400; ++step) {
    from += jumps.uniform() * (step % 3 == 0 ? 30.0 : 2.0);
    while (cursor < all.size() && all[cursor].time < from) ++cursor;
    const ft::FaultEvent a = sampled.next(from);
    const ft::FaultEvent b = replayed.next(from);
    if (cursor == all.size()) {
      EXPECT_EQ(a.time, kNoFault);
      EXPECT_EQ(b.time, kNoFault);
      break;
    }
    EXPECT_TRUE(same_event(a, all[cursor])) << "step " << step;
    EXPECT_TRUE(same_event(b, all[cursor])) << "step " << step;
    ++cursor;
    // A skipped or returned event never reappears: asking again from an
    // earlier time yields the next unconsumed event, not an old one.
    if (step % 7 == 0 && cursor < all.size()) {
      EXPECT_TRUE(same_event(sampled.next(0.0), all[cursor]));
      EXPECT_TRUE(same_event(replayed.next(0.0), all[cursor]));
      ++cursor;
    }
  }
  EXPECT_EQ(cursor, all.size());
}

TEST(Schedule, ValidateRejectsMalformedTraces) {
  ft::FaultEvent ok;
  ok.time = 5.0;
  ok.node = 0;
  auto bad_time = ok;
  bad_time.time = -1.0;
  EXPECT_THROW(validate_schedule({bad_time}, 2), std::invalid_argument);
  auto nan_time = ok;
  nan_time.time = std::nan("");
  EXPECT_THROW(validate_schedule({nan_time}, 2), std::invalid_argument);
  auto bad_node = ok;
  bad_node.node = 2;
  EXPECT_THROW(validate_schedule({bad_node}, 2), std::invalid_argument);
  auto bad_detect = ok;
  bad_detect.detect_after = -0.5;
  EXPECT_THROW(validate_schedule({bad_detect}, 2), std::invalid_argument);
  auto earlier = ok;
  earlier.time = 1.0;
  EXPECT_THROW(validate_schedule({ok, earlier}, 2), std::invalid_argument);
  EXPECT_NO_THROW(validate_schedule({earlier, ok}, 2));
  // A replay stream validates its trace.
  EXPECT_THROW(FaultStream({ok, earlier}, 2), std::invalid_argument);
}

TEST(SdcProcess, RejectsBadParameters) {
  EXPECT_THROW(SdcProcess(0.0), std::invalid_argument);
  EXPECT_THROW(SdcProcess(-5.0), std::invalid_argument);
  EXPECT_THROW(SdcProcess(10.0, -1.0), std::invalid_argument);
}

TEST(SdcProcess, SampleNodeDrawsOrderedCorruptionsWithLatency) {
  const SdcProcess sdc(10.0, 2.0);
  util::Rng rng(17);
  double t = 0.0;
  bool any_latency = false;
  for (int i = 0; i < 50; ++i) {
    const ft::FaultEvent ev = sdc.next_after(t, rng);
    EXPECT_EQ(ev.kind, ft::FailureKind::kSilentCorruption);
    EXPECT_GE(ev.detect_after, 0.0);
    EXPECT_LT(t, ev.time);
    any_latency = any_latency || ev.detect_after > 0.0;
    t = ev.time;
  }
  EXPECT_TRUE(any_latency);
}

TEST(SdcProcess, InstantDetectorHasZeroLatency) {
  const SdcProcess sdc(10.0, 0.0);
  util::Rng rng(17);
  for (const auto& ev :
       drain(FaultStream(nullptr, &sdc, 1, 500.0, util::Rng(17))))
    EXPECT_EQ(ev.detect_after, 0.0);
  EXPECT_EQ(sdc.next_after(1.0, rng).detect_after, 0.0);
}

}  // namespace
}  // namespace ftbesst::inject
