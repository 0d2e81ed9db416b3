// Metrics registry contract: thread-local sharded counters/histograms sum
// to exact totals across a hammering TaskPool workload, handles are
// idempotent per name, the disabled path records nothing, and the JSON
// export parses strictly with every key path and value in place.

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/json.hpp"
#include "util/task_pool.hpp"

namespace ftbesst::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    enable(true);
    reset();
  }
  void TearDown() override {
    reset();
    enable(false);
  }
};

TEST_F(MetricsTest, RegistrationIsIdempotentPerName) {
  const Counter a = counter("test.idem");
  const Counter b = counter("test.idem");
  a.add(3);
  b.add(4);
  const auto snap = scrape();
  EXPECT_EQ(snap.counter("test.idem"), 7u);
  // Exactly one entry carries the name.
  std::size_t seen = 0;
  for (const auto& [name, value] : snap.counters)
    if (name == "test.idem") ++seen;
  EXPECT_EQ(seen, 1u);
}

TEST_F(MetricsTest, DisabledHandlesRecordNothing) {
  const Counter c = counter("test.disabled");
  const Histogram h = histogram("test.disabled_hist", {1.0, 2.0});
  enable(false);
  c.add(100);
  h.observe(1.5);
  enable(true);
  const auto snap = scrape();
  EXPECT_EQ(snap.counter("test.disabled"), 0u);
  ASSERT_NE(snap.histogram("test.disabled_hist"), nullptr);
  EXPECT_EQ(snap.histogram("test.disabled_hist")->count, 0u);
}

TEST_F(MetricsTest, GaugeSetAndMaxSemantics) {
  const Gauge g = gauge("test.gauge");
  g.set(5.0);
  g.max(3.0);  // below current: no change
  EXPECT_DOUBLE_EQ(scrape().gauge("test.gauge"), 5.0);
  g.max(9.0);  // new record
  EXPECT_DOUBLE_EQ(scrape().gauge("test.gauge"), 9.0);
  g.set(1.0);  // set always overwrites
  EXPECT_DOUBLE_EQ(scrape().gauge("test.gauge"), 1.0);
}

TEST_F(MetricsTest, HistogramBucketBoundsAreInclusiveUpper) {
  const Histogram h = histogram("test.buckets", {1.0, 2.0, 4.0});
  h.observe(0.5);   // <= 1.0 -> bucket 0
  h.observe(1.0);   // == bound -> bucket 0 (inclusive)
  h.observe(1.5);   // bucket 1
  h.observe(4.0);   // bucket 2
  h.observe(100.0); // overflow
  h.observe(std::nan(""));  // unrankable -> overflow
  const auto snap = scrape();
  const HistogramSnapshot* hs = snap.histogram("test.buckets");
  ASSERT_NE(hs, nullptr);
  ASSERT_EQ(hs->buckets.size(), 4u);
  EXPECT_EQ(hs->buckets[0], 2u);
  EXPECT_EQ(hs->buckets[1], 1u);
  EXPECT_EQ(hs->buckets[2], 1u);
  EXPECT_EQ(hs->buckets[3], 2u);
  EXPECT_EQ(hs->count, 6u);
}

TEST_F(MetricsTest, HistogramFirstRegistrationBoundsWin) {
  const Histogram first = histogram("test.first_wins", {1.0, 10.0});
  const Histogram second = histogram("test.first_wins", {99.0});
  first.observe(5.0);
  second.observe(5.0);  // same underlying histogram, same bounds
  const auto snap = scrape();
  const auto* hs = snap.histogram("test.first_wins");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->bounds, (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(hs->count, 2u);
  ASSERT_EQ(hs->buckets.size(), 3u);
  EXPECT_EQ(hs->buckets[1], 2u);  // both 5.0s in (1, 10]
}

TEST_F(MetricsTest, SnapshotQuantileInterpolates) {
  const Histogram h = histogram("test.quantile", {10.0, 20.0, 30.0});
  for (int i = 0; i < 10; ++i) h.observe(5.0);    // bucket (0, 10]
  for (int i = 0; i < 10; ++i) h.observe(15.0);   // bucket (10, 20]
  const auto snap = scrape();
  const auto* hs = snap.histogram("test.quantile");
  ASSERT_NE(hs, nullptr);
  // Median sits at the bucket boundary; q=1 at the top of the occupied range.
  EXPECT_NEAR(hs->quantile(0.5), 10.0, 1.0);
  EXPECT_NEAR(hs->quantile(1.0), 20.0, 1e-9);
  EXPECT_NEAR(hs->quantile(0.0), 0.0, 1e-9);
}

TEST_F(MetricsTest, ConcurrentCountersScrapeExactTotals) {
  // N tasks on the shared pool hammering one counter and one histogram:
  // after TaskGroup::wait the scrape must see exactly every increment —
  // sharding may never lose or double-count.
  const Counter hits = counter("test.hammer");
  const Histogram lat = histogram("test.hammer_hist", {0.5, 1.5, 2.5});
  constexpr std::uint64_t kTasks = 64;
  constexpr std::uint64_t kItersPerTask = 10000;
  util::TaskGroup group;
  for (std::uint64_t t = 0; t < kTasks; ++t) {
    group.run([&, t] {
      for (std::uint64_t i = 0; i < kItersPerTask; ++i) {
        hits.add();
        lat.observe(static_cast<double>((t + i) % 3));  // 0, 1, or 2
      }
    });
  }
  group.wait();
  const auto snap = scrape();
  EXPECT_EQ(snap.counter("test.hammer"), kTasks * kItersPerTask);
  const auto* hs = snap.histogram("test.hammer_hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, kTasks * kItersPerTask);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : hs->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, hs->count);
  // Values cycle 0,1,2 uniformly over iterations, so the sum is exact too.
  double expected_sum = 0.0;
  for (std::uint64_t t = 0; t < kTasks; ++t)
    for (std::uint64_t i = 0; i < kItersPerTask; ++i)
      expected_sum += static_cast<double>((t + i) % 3);
  EXPECT_DOUBLE_EQ(hs->sum, expected_sum);
}

TEST_F(MetricsTest, ExitedThreadShardsFoldIntoRetired) {
  // Increments made by threads that have already exited must survive in
  // the retired shard.
  const Counter c = counter("test.retired");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) c.add();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(scrape().counter("test.retired"), 8000u);
}

TEST_F(MetricsTest, ResetZeroesValuesButKeepsNames) {
  const Counter c = counter("test.reset");
  const Gauge g = gauge("test.reset_gauge");
  c.add(5);
  g.set(2.0);
  reset();
  const auto snap = scrape();
  EXPECT_TRUE(snap.has_counter("test.reset"));
  EXPECT_EQ(snap.counter("test.reset"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("test.reset_gauge"), 0.0);
  c.add(1);  // handle still live after reset
  EXPECT_EQ(scrape().counter("test.reset"), 1u);
}

// metrics.json as write_output_dir leaves it, parsed by the strict parser.
util::Json written_metrics_json(const std::string& subdir) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / subdir;
  EXPECT_TRUE(write_output_dir(dir.string()));
  std::ifstream is(dir / "metrics.json");
  std::stringstream text;
  text << is.rdbuf();
  std::filesystem::remove_all(dir);
  return util::Json::parse(text.str());
}

TEST_F(MetricsTest, JsonExportIsWellFormed) {
  counter("test.json \"quoted\\name\"").add(2);
  gauge("test.json_gauge").set(1.25);
  histogram("test.json_hist", {1.0, 2.0}).observe(1.5);
  const util::Json doc = util::Json::parse(scrape().to_json().dump());
  const util::JsonObject& top = doc.as_object();
  EXPECT_EQ(top.size(), 3u);
  EXPECT_EQ(top.at("counters")
                .as_object()
                .at("test.json \"quoted\\name\"")
                .as_number(),
            2.0);
  EXPECT_EQ(top.at("gauges").as_object().at("test.json_gauge").as_number(),
            1.25);
  const util::JsonObject& hist =
      top.at("histograms").as_object().at("test.json_hist").as_object();
  EXPECT_EQ(hist.at("count").as_number(), 1.0);
  EXPECT_EQ(hist.at("sum").as_number(), 1.5);
  const util::JsonArray& buckets = hist.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].as_object().at("le").as_number(), 1.0);
  EXPECT_EQ(buckets[0].as_object().at("n").as_number(), 0.0);
  EXPECT_EQ(buckets[1].as_object().at("le").as_number(), 2.0);
  EXPECT_EQ(buckets[1].as_object().at("n").as_number(), 1.0);
  EXPECT_TRUE(buckets[2].as_object().at("le").is_null());  // overflow
  EXPECT_EQ(buckets[2].as_object().at("n").as_number(), 0.0);
}

TEST_F(MetricsTest, MetricsJsonKeepsEveryDigit) {
  // Gauges, histogram sums and bounds print in their shortest round-trip
  // form, not at the stream's default 6 significant digits.
  gauge("test.big_gauge").set(1234567.25);
  histogram("test.ns_hist", {2.5e9 + 0.5}).observe(1234567891.0);
  const util::JsonObject doc =
      written_metrics_json("metrics_digits").as_object();
  EXPECT_EQ(doc.at("gauges").as_object().at("test.big_gauge").as_number(),
            1234567.25);
  const util::JsonObject& hist =
      doc.at("histograms").as_object().at("test.ns_hist").as_object();
  EXPECT_EQ(hist.at("sum").as_number(), 1234567891.0);
  EXPECT_EQ(hist.at("buckets").as_array()[0].as_object().at("le").as_number(),
            2.5e9 + 0.5);
}

TEST_F(MetricsTest, MetricsJsonSurvivesHostileNamesAndValues) {
  // A control byte in a name must be escaped, and JSON has no infinity: the
  // file must still parse, keep the name exactly and write null for values
  // it cannot represent.
  const std::string name = "test.ctl\r\x01";
  counter(name).add(3);
  gauge("test.inf_gauge").set(std::numeric_limits<double>::infinity());
  histogram("test.inf_hist", {1.0}).observe(
      std::numeric_limits<double>::infinity());
  const util::JsonObject doc =
      written_metrics_json("metrics_hostile").as_object();
  EXPECT_EQ(doc.at("counters").as_object().at(name).as_number(), 3.0);
  EXPECT_TRUE(doc.at("gauges").as_object().at("test.inf_gauge").is_null());
  const util::JsonObject& hist =
      doc.at("histograms").as_object().at("test.inf_hist").as_object();
  EXPECT_TRUE(hist.at("sum").is_null());
  EXPECT_EQ(hist.at("count").as_number(), 1.0);
}

TEST_F(MetricsTest, CompiledFlagMatchesBuild) {
  // The suite builds with the layer compiled in; enabled() must then follow
  // the runtime switch exactly.
  EXPECT_TRUE(compiled());
  EXPECT_TRUE(enabled());
  enable(false);
  EXPECT_FALSE(enabled());
  enable(true);
  EXPECT_TRUE(enabled());
}

}  // namespace
}  // namespace ftbesst::obs
