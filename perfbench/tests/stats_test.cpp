// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests of the benchmark's own arithmetic: the percentile rule, span self
// time, and open-loop lateness.
#include <gtest/gtest.h>

#include <sstream>

#include "trace.h"

namespace perfbench {
namespace {

constexpr std::int64_t kMs = 1'000'000;  // ns

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 500);
  EXPECT_EQ(percentile(v, 99), 990);
  EXPECT_EQ(percentile(v, 100), 1000);
  EXPECT_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(median({3, 1, 2, 10}), 2.5);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  // 1,000 samples: p99 is rank 990, leaving exactly 10 beyond it.
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(highest_reportable_percentile(1000), 99.0);
  // One fewer and p99 has only 9 beyond; p90 has 99.
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(highest_reportable_percentile(999), 90.0);
  EXPECT_EQ(highest_reportable_percentile(10'000), 99.9);
  EXPECT_EQ(highest_reportable_percentile(100), 90.0);
  EXPECT_EQ(highest_reportable_percentile(20), 50.0);
  EXPECT_EQ(highest_reportable_percentile(19), 0.0);
  EXPECT_EQ(highest_reportable_percentile(0), 0.0);
}

TEST(SelfTime, NestedSpans) {
  SpanRecorder rec;
  int root = rec.add("run", 0, 100 * kMs);
  int child = rec.add("child", 10 * kMs, 60 * kMs, root);
  rec.add("grandchild", 20 * kMs, 50 * kMs, child);
  std::vector<std::int64_t> self = self_times_ns(rec.spans());
  EXPECT_EQ(self[0], 50 * kMs);  // 100 - child's 50
  EXPECT_EQ(self[1], 20 * kMs);  // 50 - grandchild's 30
  EXPECT_EQ(self[2], 30 * kMs);  // leaf
  auto by_name = self_seconds_by_name(rec.spans());
  EXPECT_DOUBLE_EQ(by_name["child"], 0.020);
  EXPECT_DOUBLE_EQ(unaccounted_fraction(rec.spans()), 0.5);
}

TEST(SelfTime, BackToBackAndOverlappingChildren) {
  SpanRecorder rec;
  int root = rec.add("run", 0, 100 * kMs);
  rec.add("a", 0, 40 * kMs, root);
  rec.add("b", 40 * kMs, 90 * kMs, root);   // touches a: no gap, no overlap
  rec.add("c", 80 * kMs, 120 * kMs, root);  // overlaps b, runs past root
  std::vector<std::int64_t> self = self_times_ns(rec.spans());
  EXPECT_EQ(self[0], 0);  // [0, 100) fully covered; overlap counted once
  auto by_name = self_seconds_by_name(rec.spans());
  EXPECT_DOUBLE_EQ(by_name["a"], 0.040);
  EXPECT_DOUBLE_EQ(by_name["b"], 0.050);
  EXPECT_DOUBLE_EQ(unaccounted_fraction(rec.spans()), 0.0);
}

TEST(SelfTime, RunFilterAndRecorderNesting) {
  SpanRecorder rec;
  rec.set_run(1);
  {
    Scope outer(&rec, "run");
    Scope inner(&rec, "layer");
  }
  rec.set_run(2);
  { Scope other(&rec, "run"); }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, -1);
  EXPECT_EQ(self_seconds_by_name(rec.spans(), 2).count("layer"), 0u);
  EXPECT_EQ(self_seconds_by_name(rec.spans(), 1).count("layer"), 1u);
  std::ostringstream out;
  rec.write_jsonl(out);
  EXPECT_NE(out.str().find("\"span\":\"layer\",\"start_us\":"),
            std::string::npos);
  EXPECT_NE(out.str().find("\"parent\":0,\"run\":1}"), std::string::npos);
}

/// A clock that only moves when the system under test "works" or the
/// pacer waits.
class FakeClock final : public LoopClock {
 public:
  double t = 0.0;
  double now_s() override { return t; }
  void wait_until_s(double target) override { t = std::max(t, target); }
};

TEST(OpenLoop, StalledTickMakesEveryLaterDueTimeLate) {
  // 10 ticks of 100 sim-s at rate 100: one tick due every wall second.
  std::vector<std::int64_t> arrivals;
  for (std::int64_t s = 0; s <= 1000; s += 50) arrivals.push_back(s);
  FakeClock clock;
  Schedule schedule{0, 100.0};
  int tick_no = 0;
  auto ingest = [](std::size_t) {};
  auto advance = [&](std::int64_t) -> std::size_t {
    // Tick 3 stalls for 3.5 s; every other tick takes 0.1 s.
    clock.t += (++tick_no == 3) ? 3.5 : 0.1;
    return 1;
  };
  auto drain = [] { return std::size_t{0}; };
  LoopStats stats =
      drive_loop(arrivals, 100, schedule, clock, ingest, advance, drain);
  ASSERT_EQ(stats.verdict_latency_ms.size(), 10u);
  EXPECT_NEAR(stats.verdict_latency_ms[0], 100.0, 1e-6);
  EXPECT_NEAR(stats.verdict_latency_ms[1], 100.0, 1e-6);
  EXPECT_NEAR(stats.verdict_latency_ms[2], 3500.0, 1e-6);  // the stall
  // Tick 4 was due at 4 s but tick 3 returned at 6.5 s: it is 2.6 s late,
  // tick 5 1.7 s, tick 6 0.8 s, and from tick 7 the loop has caught up.
  EXPECT_NEAR(stats.verdict_latency_ms[3], 2600.0, 1e-6);
  EXPECT_NEAR(stats.verdict_latency_ms[4], 1700.0, 1e-6);
  EXPECT_NEAR(stats.verdict_latency_ms[5], 800.0, 1e-6);
  EXPECT_NEAR(stats.verdict_latency_ms[6], 100.0, 1e-6);
  // The generator ran late for every send between the stall and catch-up.
  double worst_lag = 0.0;
  for (double lag : stats.generator_lag_ms) {
    worst_lag = std::max(worst_lag, lag);
  }
  EXPECT_NEAR(worst_lag, 3500.0, 1e-6);  // the send due at 3 s went at 6.5 s
  EXPECT_EQ(stats.offered, arrivals.size());
  EXPECT_EQ(stats.ticks, 11u);  // 10 advances + drain
}

TEST(OpenLoop, ClosedLoopNeverWaits) {
  std::vector<std::int64_t> arrivals = {0, 100, 200, 300};
  FakeClock clock;
  auto ingest = [&](std::size_t) { clock.t += 1.0; };
  auto advance = [](std::int64_t) -> std::size_t { return 0; };
  auto drain = [] { return std::size_t{2}; };
  LoopStats stats = drive_loop(arrivals, 100, Schedule{0, 0.0}, clock, ingest,
                               advance, drain);
  EXPECT_DOUBLE_EQ(stats.wall_s, 4.0);  // only the ingest work
  EXPECT_TRUE(stats.generator_lag_ms.empty());
  EXPECT_EQ(stats.verdicts, 2u);
}

}  // namespace
}  // namespace perfbench
