#include "ft/fault_log.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace ftbesst::ft {
namespace {

TEST(WeibullShapeFromCv, KnownAnchors) {
  // Exponential: cv = 1 <-> shape = 1.
  EXPECT_NEAR(weibull_shape_from_cv(1.0), 1.0, 0.01);
  // Regular arrivals (small cv) -> large shape; bursty (large cv) -> small.
  EXPECT_GT(weibull_shape_from_cv(0.3), 2.0);
  EXPECT_LT(weibull_shape_from_cv(2.0), 0.7);
  // Clamps at the search boundary.
  EXPECT_DOUBLE_EQ(weibull_shape_from_cv(100.0), 0.2);
  EXPECT_DOUBLE_EQ(weibull_shape_from_cv(0.0), 10.0);
}

class RoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(RoundTrip, RecoversGeneratingParameters) {
  const double true_shape = GetParam();
  const double true_mtbf = 2000.0;
  const std::int64_t nodes = 20;
  FaultProcess truth(true_mtbf, 0.7, true_shape);
  util::Rng rng(42);
  // A long log: enough gaps for stable moments.
  const auto log = truth.sample(nodes, 400000.0, rng);
  ASSERT_GT(log.size(), 1000u);

  const FaultModelEstimate est = estimate_fault_model(log, nodes);
  EXPECT_NEAR(est.node_mtbf / true_mtbf, 1.0, 0.10) << "shape " << true_shape;
  EXPECT_NEAR(est.weibull_shape, true_shape, 0.15 * true_shape + 0.1);
  EXPECT_NEAR(est.node_loss_fraction, 0.7, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RoundTrip,
                         ::testing::Values(0.7, 1.0, 1.6));

TEST(EstimateFaultModel, InputValidation) {
  std::vector<FaultEvent> tiny(2);
  tiny[0].time = 1.0;
  tiny[1].time = 2.0;
  EXPECT_THROW((void)estimate_fault_model(tiny, 4), std::invalid_argument);

  std::vector<FaultEvent> unordered(3);
  unordered[0].time = 5.0;
  unordered[1].time = 2.0;
  unordered[2].time = 9.0;
  EXPECT_THROW((void)estimate_fault_model(unordered, 4),
               std::invalid_argument);

  std::vector<FaultEvent> simultaneous(3);
  EXPECT_THROW((void)estimate_fault_model(simultaneous, 4),
               std::invalid_argument);
  std::vector<FaultEvent> ok(3);
  ok[0].time = 1.0;
  ok[1].time = 2.0;
  ok[2].time = 3.0;
  EXPECT_THROW((void)estimate_fault_model(ok, 0), std::invalid_argument);
  EXPECT_NO_THROW((void)estimate_fault_model(ok, 4));
}

TEST(EstimateFaultModel, CrashOnlyLogGivesZeroLossFraction) {
  std::vector<FaultEvent> log(5);
  for (int i = 0; i < 5; ++i) {
    log[static_cast<std::size_t>(i)].time = i * 10.0;
    log[static_cast<std::size_t>(i)].kind = FailureKind::kProcessCrash;
  }
  const auto est = estimate_fault_model(log, 8);
  EXPECT_DOUBLE_EQ(est.node_loss_fraction, 0.0);
  EXPECT_DOUBLE_EQ(est.system_mtbf, 10.0);
  EXPECT_DOUBLE_EQ(est.node_mtbf, 80.0);
}

FaultLog two_trial_log() {
  FaultRecord first;
  first.time = 12.5;
  first.node = 3;
  first.recovery_level = 2;
  first.lost_work_seconds = 0.1;
  FaultRecord second = first;
  second.time = 7.25;
  second.kind = FailureKind::kSilentCorruption;
  second.detect_after = 1.0 / 3.0;
  FaultLog trial;
  trial.add(first);
  trial.add(second);
  FaultLog log;
  log.append_trial(trial, 1);  // trial 0 and trial 2 recorded no fault
  log.set_trials(3);
  return log;
}

TEST(FaultLogText, V2RoundTripKeepsTheTrialCount) {
  const FaultLog log = two_trial_log();
  const std::string text = log.to_text();
  EXPECT_EQ(text.rfind("ftbesst-faultlog v2\ntrials 3\n", 0), 0u) << text;
  const FaultLog back = FaultLog::from_text(text);
  EXPECT_EQ(back.trials(), 3u);
  EXPECT_EQ(back.to_text(), text);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.records()[1].detect_after, 1.0 / 3.0);
  // Time-ordered; an in-range trial without records replays as no faults.
  const auto trace = back.to_trace(1);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].time, 7.25);
  EXPECT_TRUE(back.to_trace(2).empty());
}

TEST(FaultLogText, V1StillParses) {
  const FaultLog log = FaultLog::from_text(
      "ftbesst-faultlog v1\n"
      "0 4.5 1 loss 0 0 4.5 0\n"
      "5 9 2 crash 0 1 1.5 0.25\n");
  EXPECT_EQ(log.trials(), 0u);  // unknown
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.to_trace(5).size(), 1u);
  // Without a trial count only a negative index is known to be bad.
  EXPECT_TRUE(log.to_trace(99).empty());
  EXPECT_THROW((void)log.to_trace(-1), std::out_of_range);
  // A log without a count is written back as v1.
  EXPECT_EQ(log.to_text().rfind("ftbesst-faultlog v1\n", 0), 0u);
}

TEST(FaultLogText, OutOfRangeTrialsThrow) {
  const FaultLog log = two_trial_log();
  EXPECT_THROW((void)log.to_trace(3), std::out_of_range);
  EXPECT_THROW((void)log.to_trace(99), std::out_of_range);
  EXPECT_THROW((void)log.to_trace(-1), std::out_of_range);
  // The parser holds v2 records to the declared count.
  EXPECT_THROW((void)FaultLog::from_text("ftbesst-faultlog v2\ntrials 2\n"
                                         "2 4.5 1 loss 0 0 4.5 0\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultLog::from_text("ftbesst-faultlog v2\n"
                                         "0 4.5 1 loss 0 0 4.5 0\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultLog::from_text("ftbesst-faultlog v2\ntrials 0\n"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultLog::from_text("ftbesst-faultlog v3\n"),
               std::invalid_argument);
}

}  // namespace
}  // namespace ftbesst::ft
