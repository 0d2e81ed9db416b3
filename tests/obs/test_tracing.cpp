// Span tracing contract: RAII spans land in per-thread rings with correct
// nesting depth, worker spans survive thread exit, bounded rings account
// for their drops, and both export formats are well-formed (the Chrome
// trace is canonical JSON that keeps every timestamp digit).

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/obs.hpp"
#include "util/json.hpp"

namespace ftbesst::obs {
namespace {

class TracingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    enable(true);
    trace_reset();
  }
  void TearDown() override {
    trace_reset();
    enable(false);
  }
};

const SpanRecord* find_span(const TraceSnapshot& snap, const std::string& n) {
  for (const auto& rec : snap.spans)
    if (rec.name && n == rec.name) return &rec;
  return nullptr;
}

TEST_F(TracingTest, SpansRecordNameDurationAndNesting) {
  {
    FTBESST_OBS_SPAN("test.outer");
    {
      FTBESST_OBS_SPAN("test.inner");
    }
  }
  const auto snap = collect_spans();
  const SpanRecord* outer = find_span(snap, "test.outer");
  const SpanRecord* inner = find_span(snap, "test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_EQ(outer->tid, inner->tid);
  // The inner span is contained in the outer one on the same clock.
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
  EXPECT_EQ(snap.dropped, 0u);
}

TEST_F(TracingTest, DisabledSpansRecordNothing) {
  enable(false);
  {
    FTBESST_OBS_SPAN("test.invisible");
  }
  enable(true);
  EXPECT_EQ(find_span(collect_spans(), "test.invisible"), nullptr);
}

TEST_F(TracingTest, SpanEnabledAtEntryStillClosesWhenDisabledAtExit) {
  // The RAII guard captures its fate at construction; flipping the switch
  // mid-span must not leak depth or lose the record.
  {
    Span span("test.mid_flip");
    enable(false);
  }
  enable(true);
  const auto snap = collect_spans();
  const SpanRecord* rec = find_span(snap, "test.mid_flip");
  ASSERT_NE(rec, nullptr);
  {
    FTBESST_OBS_SPAN("test.after_flip");
  }
  const auto snap2 = collect_spans();  // keep alive: rec points into it
  const SpanRecord* after = find_span(snap2, "test.after_flip");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->depth, 0u);  // depth counter returned to zero
}

TEST_F(TracingTest, WorkerThreadSpansSurviveThreadExit) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([] {
      FTBESST_OBS_SPAN("test.worker");
    });
  for (auto& th : threads) th.join();
  const auto snap = collect_spans();
  std::size_t workers = 0;
  std::set<std::uint32_t> tids;
  for (const auto& rec : snap.spans)
    if (rec.name && std::string("test.worker") == rec.name) {
      ++workers;
      tids.insert(rec.tid);
    }
  EXPECT_EQ(workers, 4u);
  EXPECT_EQ(tids.size(), 4u);  // each exited thread kept its own tid
}

TEST_F(TracingTest, RingOverflowDropsOldestAndCountsDrops) {
  constexpr std::size_t kOverfill = 10000;  // > ring capacity (8192)
  for (std::size_t i = 0; i < kOverfill; ++i) {
    FTBESST_OBS_SPAN("test.flood");
  }
  const auto snap = collect_spans();
  std::size_t kept = 0;
  for (const auto& rec : snap.spans)
    if (rec.name && std::string("test.flood") == rec.name) ++kept;
  EXPECT_LT(kept, kOverfill);
  EXPECT_GT(kept, 0u);
  EXPECT_EQ(snap.dropped, kOverfill - kept);
}

TEST_F(TracingTest, ChromeTraceExportIsWellFormedJson) {
  {
    FTBESST_OBS_SPAN("test.chrome \"escaped\"");
    FTBESST_OBS_SPAN("test.chrome_inner");
  }
  std::ostringstream os;
  write_chrome_trace(os);
  const util::JsonObject doc = util::Json::parse(os.str()).as_object();
  EXPECT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  std::multiset<std::string> names;
  for (const util::Json& event : doc.at("traceEvents").as_array()) {
    const util::JsonObject& ev = event.as_object();
    EXPECT_EQ(ev.size(), 7u);
    EXPECT_EQ(ev.at("cat").as_string(), "ftbesst");
    EXPECT_EQ(ev.at("ph").as_string(), "X");
    EXPECT_EQ(ev.at("pid").as_number(), 1.0);
    EXPECT_GE(ev.at("tid").as_number(), 0.0);
    EXPECT_GE(ev.at("dur").as_number(), 0.0);
    EXPECT_GE(ev.at("ts").as_number(), 0.0);
    names.insert(ev.at("name").as_string());
  }
  EXPECT_EQ(names, (std::multiset<std::string>{"test.chrome \"escaped\"",
                                               "test.chrome_inner"}));
}

TEST_F(TracingTest, ChromeTraceKeepsEveryTimestampDigit) {
  // 100 ms after the process epoch a start time has nine digits of ns, so
  // six significant digits of microseconds would already round it.
  while (now_ns() < 100'000'000)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  {
    FTBESST_OBS_SPAN("test.late");
  }
  const TraceSnapshot snap = collect_spans();
  std::ostringstream os;
  write_chrome_trace(os);
  const std::string text = os.str();
  const util::Json doc = util::Json::parse(text);
  EXPECT_EQ(doc.dump(), text);  // the whole export is canonical JSON
  const util::JsonArray& events = doc.as_object().at("traceEvents").as_array();
  ASSERT_EQ(events.size(), snap.spans.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const util::JsonObject& ev = events[i].as_object();
    const SpanRecord& rec = snap.spans[i];
    EXPECT_EQ(ev.at("name").as_string(), rec.name);
    EXPECT_EQ(ev.at("ts").as_number(),
              static_cast<double>(rec.start_ns) / 1000.0);
    EXPECT_EQ(ev.at("dur").as_number(),
              static_cast<double>(rec.dur_ns) / 1000.0);
  }
}

TEST_F(TracingTest, FlameSummaryAggregatesByName) {
  for (int i = 0; i < 3; ++i) {
    FTBESST_OBS_SPAN("test.flame");
  }
  std::ostringstream os;
  write_flame_summary(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("test.flame"), std::string::npos);
  // One aggregate line per name, not one per record.
  std::size_t occurrences = 0;
  for (std::size_t pos = text.find("test.flame"); pos != std::string::npos;
       pos = text.find("test.flame", pos + 1))
    ++occurrences;
  EXPECT_EQ(occurrences, 1u);
}

TEST_F(TracingTest, TraceResetDiscardsRetainedSpans) {
  {
    FTBESST_OBS_SPAN("test.cleared");
  }
  ASSERT_NE(find_span(collect_spans(), "test.cleared"), nullptr);
  trace_reset();
  const auto snap = collect_spans();
  EXPECT_EQ(find_span(snap, "test.cleared"), nullptr);
  EXPECT_EQ(snap.dropped, 0u);
}

}  // namespace
}  // namespace ftbesst::obs
