// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the observability subsystem: sharded metric primitives under
// concurrency, registry semantics, exporter formats (Prometheus text parsed
// line by line, JSON round-tripped against the snapshot), trace spans and
// the span log, and feed-health gap/silence tracking.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/export.h"
#include "obs/feed_health.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace grca::obs {
namespace {

// ---- metric primitives -----------------------------------------------------

TEST(Metrics, CounterSumsConcurrentIncrements) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test_total");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("test_gauge");
  EXPECT_EQ(g.value(), 0.0);
  g.set(42.5);
  EXPECT_EQ(g.value(), 42.5);
  g.add(-2.5);
  EXPECT_EQ(g.value(), 40.0);
}

TEST(Metrics, HistogramBucketsAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test_hist", {1.0, 5.0, 10.0});
  h.observe(0.5);   // -> le=1
  h.observe(1.0);   // exactly on a bound -> le=1 (inclusive)
  h.observe(3.0);   // -> le=5
  h.observe(10.0);  // -> le=10
  h.observe(99.0);  // -> +Inf
  Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);  // 3 bounds + implicit +Inf
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 3.0 + 10.0 + 99.0);
}

TEST(Metrics, HistogramAddEqualsObserves) {
  MetricsRegistry registry;
  Histogram& one = registry.histogram("one_by_one", {1.0, 5.0, 10.0});
  Histogram& bulk = registry.histogram("in_bulk", {1.0, 5.0, 10.0});
  std::vector<std::uint64_t> buckets(4, 0);
  double sum = 0;
  for (double v : {0.0, 1.0, 3.0, 5.0, 7.0, 10.0, 11.0, 99.0, 2.0}) {
    one.observe(v);
    ++buckets[Histogram::bucket_of(one.bounds(), v)];
    sum += v;
  }
  bulk.add(buckets, sum);
  const Histogram::Snapshot a = one.snapshot();
  const Histogram::Snapshot b = bulk.snapshot();
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
}

TEST(Metrics, HistogramBucketCountsSumToCountUnderConcurrency) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test_hist", {0.25, 0.5, 0.75});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>((t * kPerThread + i) % 100) / 100.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Histogram::Snapshot snap = h.snapshot();
  std::uint64_t bucket_sum = 0;
  for (std::uint64_t b : snap.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, snap.count);
  EXPECT_EQ(snap.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---- registry semantics ----------------------------------------------------

TEST(Metrics, RegistryReturnsSameObjectForSameName) {
  MetricsRegistry registry;
  Counter& a = registry.counter("shared_total");
  Counter& b = registry.counter("shared_total");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Metrics, RegistryKindCollisionThrows) {
  MetricsRegistry registry;
  registry.counter("name_a");
  EXPECT_THROW(registry.gauge("name_a"), ConfigError);
  EXPECT_THROW(registry.histogram("name_a"), ConfigError);
  registry.histogram("name_b");
  EXPECT_THROW(registry.counter("name_b"), ConfigError);
}

TEST(Metrics, SnapshotIsNameOrdered) {
  MetricsRegistry registry;
  registry.counter("zzz_total").inc(1);
  registry.counter("aaa_total").inc(2);
  MetricsRegistry::Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.begin()->first, "aaa_total");
  EXPECT_EQ(snap.counters.at("zzz_total"), 1u);
}

TEST(Metrics, ScopedRegistryInstallsAndRestores) {
  MetricsRegistry* before = registry_ptr();
  {
    MetricsRegistry mine;
    ScopedRegistry scoped(&mine);
    EXPECT_EQ(registry_ptr(), &mine);
    {
      ScopedRegistry off(nullptr);
      EXPECT_EQ(registry_ptr(), nullptr);
    }
    EXPECT_EQ(registry_ptr(), &mine);
  }
  EXPECT_EQ(registry_ptr(), before);
}

// ---- Prometheus exporter ---------------------------------------------------

TEST(Export, SplitLabels) {
  auto [base, labels] = split_labels("a_total{x=\"y\",z=\"w\"}");
  EXPECT_EQ(base, "a_total");
  EXPECT_EQ(labels, "x=\"y\",z=\"w\"");
  auto [plain, none] = split_labels("plain_total");
  EXPECT_EQ(plain, "plain_total");
  EXPECT_EQ(none, "");
}

TEST(Export, JsonEscape) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

/// One parsed Prometheus sample line.
struct Sample {
  std::string name;    // base name including any {labels} block
  double value = 0.0;
};

/// Parses the text exposition format line by line; fails the test on any
/// line that is neither a comment nor `name[{labels}] value`.
std::vector<Sample> parse_prometheus(const std::string& text) {
  std::vector<Sample> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# TYPE ", 0) == 0 ||
                  line.rfind("# HELP ", 0) == 0)
          << "bad comment: " << line;
      continue;
    }
    std::size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << "bad sample: " << line;
    Sample s;
    s.name = line.substr(0, space);
    std::size_t parsed = 0;
    s.value = std::stod(line.substr(space + 1), &parsed);
    EXPECT_EQ(parsed, line.size() - space - 1) << "bad value: " << line;
    out.push_back(std::move(s));
  }
  return out;
}

TEST(Export, PrometheusParsesLineByLine) {
  MetricsRegistry registry;
  registry.counter("grca_x_total{source=\"syslog\"}").inc(7);
  registry.counter("grca_x_total{source=\"snmp\"}").inc(9);
  registry.gauge("grca_depth").set(3.5);
  Histogram& h = registry.histogram("grca_lat_seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(2.0);

  std::string text = render_prometheus(registry);
  std::vector<Sample> samples = parse_prometheus(text);
  auto value_of = [&](const std::string& name) -> double {
    for (const Sample& s : samples) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << "missing sample " << name << " in:\n" << text;
    return -1;
  };

  EXPECT_EQ(value_of("grca_x_total{source=\"syslog\"}"), 7);
  EXPECT_EQ(value_of("grca_x_total{source=\"snmp\"}"), 9);
  EXPECT_EQ(value_of("grca_depth"), 3.5);
  // Histogram buckets are cumulative; +Inf equals _count.
  EXPECT_EQ(value_of("grca_lat_seconds_bucket{le=\"0.1\"}"), 1);
  EXPECT_EQ(value_of("grca_lat_seconds_bucket{le=\"1\"}"), 2);
  EXPECT_EQ(value_of("grca_lat_seconds_bucket{le=\"+Inf\"}"), 3);
  EXPECT_EQ(value_of("grca_lat_seconds_count"), 3);
  EXPECT_DOUBLE_EQ(value_of("grca_lat_seconds_sum"), 2.55);
  // Exactly one TYPE header per family.
  EXPECT_EQ(text.find("# TYPE grca_x_total counter"),
            text.rfind("# TYPE grca_x_total counter"));
}

TEST(Export, PrometheusEmitsHelpAndTypePerFamily) {
  MetricsRegistry registry;
  registry.counter("grca_feed_records_total{source=\"syslog\"}").inc(1);
  registry.counter("custom_total").inc(1);
  registry.gauge("grca_depth").set(1);
  std::string text = render_prometheus(registry);
  // Every family carries a HELP line (known families get real text,
  // unknown ones the generic fallback), immediately before its TYPE line.
  EXPECT_NE(text.find("# HELP grca_feed_records_total Raw records accepted"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP custom_total G-RCA metric\n"
                      "# TYPE custom_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# HELP grca_depth"), std::string::npos);
  // Exactly one HELP header per family.
  EXPECT_EQ(text.find("# HELP grca_feed_records_total"),
            text.rfind("# HELP grca_feed_records_total"));
}

TEST(Export, PrometheusLabelEscapesValue) {
  EXPECT_EQ(prometheus_escape_label_value("plain"), "plain");
  EXPECT_EQ(prometheus_escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(prometheus_label("m_total", "event", "if-down"),
            "m_total{event=\"if-down\"}");
  EXPECT_EQ(prometheus_label("m_total", "event", "we\"ird\\name"),
            "m_total{event=\"we\\\"ird\\\\name\"}");

  // A hostile event name flows through the registry into a well-formed,
  // escaped exposition line.
  MetricsRegistry registry;
  registry.counter(prometheus_label("grca_events_total", "event", "a\"b\nc"))
      .inc(1);
  std::string text = render_prometheus(registry);
  EXPECT_NE(text.find("grca_events_total{event=\"a\\\"b\\nc\"} 1"),
            std::string::npos)
      << text;
  // The rendered exposition must contain no raw newline inside a label
  // value: every line is either a comment or name{...} value.
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.rfind(' '), std::string::npos) << "torn line: " << line;
  }
}

// ---- JSON exporter ---------------------------------------------------------

/// A minimal JSON value + recursive-descent parser covering the subset the
/// exporter emits (objects, arrays, strings, numbers). Parse failures
/// surface as test failures via the Expect* helpers below.
struct JsonValue {
  enum Kind { kNull, kNumber, kString, kArray, kObject } kind = kNull;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    ok_ &= pos_ == text_.size();
    return v;
  }
  bool ok() const { return ok_; }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  JsonValue value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      ok_ = false;
      return {};
    }
    char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    return number();
  }
  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::kObject;
    ok_ &= consume('{');
    if (consume('}')) return v;
    do {
      JsonValue key = string_value();
      ok_ &= consume(':');
      v.object[key.string] = value();
    } while (consume(','));
    ok_ &= consume('}');
    return v;
  }
  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::kArray;
    ok_ &= consume('[');
    if (consume(']')) return v;
    do {
      v.array.push_back(value());
    } while (consume(','));
    ok_ &= consume(']');
    return v;
  }
  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::kString;
    ok_ &= consume('"');
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        ++pos_;
        switch (text_[pos_]) {
          case 'n': v.string += '\n'; break;
          case 't': v.string += '\t'; break;
          case 'r': v.string += '\r'; break;
          default: v.string += text_[pos_];
        }
      } else {
        v.string += text_[pos_];
      }
      ++pos_;
    }
    ok_ &= pos_ < text_.size();
    if (pos_ < text_.size()) ++pos_;  // closing quote
    return v;
  }
  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::kNumber;
    std::size_t parsed = 0;
    try {
      v.number = std::stod(text_.substr(pos_), &parsed);
    } catch (const std::exception&) {
      ok_ = false;
      return v;
    }
    pos_ += parsed;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

TEST(Export, JsonRoundTripsAgainstSnapshot) {
  MetricsRegistry registry;
  registry.counter("grca_x_total{source=\"syslog\"}").inc(5);
  registry.gauge("grca_depth").set(-1.25);
  Histogram& h = registry.histogram("grca_lat_seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(2.0);

  std::string text = render_json(registry);
  JsonParser parser(text);
  JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << text;
  ASSERT_EQ(root.kind, JsonValue::kObject);

  MetricsRegistry::Snapshot snap = registry.snapshot();
  const JsonValue& counters = root.object.at("counters");
  ASSERT_EQ(counters.object.size(), snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(counters.object.at(name).number, static_cast<double>(value));
  }
  const JsonValue& gauges = root.object.at("gauges");
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_DOUBLE_EQ(gauges.object.at(name).number, value);
  }
  const JsonValue& hists = root.object.at("histograms");
  ASSERT_EQ(hists.object.size(), snap.histograms.size());
  for (const auto& [name, hist] : snap.histograms) {
    const JsonValue& j = hists.object.at(name);
    ASSERT_EQ(j.object.at("bounds").array.size(), hist.bounds.size());
    const auto& buckets = j.object.at("buckets").array;
    ASSERT_EQ(buckets.size(), hist.data.buckets.size());
    double bucket_sum = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      EXPECT_EQ(buckets[i].number,
                static_cast<double>(hist.data.buckets[i]));
      bucket_sum += buckets[i].number;
    }
    // Raw per-bucket counts (non-cumulative) must sum to the counter.
    EXPECT_EQ(bucket_sum, j.object.at("count").number);
    EXPECT_DOUBLE_EQ(j.object.at("sum").number, hist.data.sum);
  }
}

// ---- trace spans -----------------------------------------------------------

TEST(Span, RecordsIntoStageHistogram) {
  MetricsRegistry registry;
  {
    ScopedSpan span("unit-test", &registry);
  }
  Histogram& h = registry.histogram("grca_stage_seconds{stage=\"unit-test\"}");
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(Span, StopIsIdempotentAndReturnsElapsed) {
  MetricsRegistry registry;
  ScopedSpan span("stop-test", &registry);
  double first = span.stop();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(span.stop(), first);  // second stop is a no-op
  Histogram& h = registry.histogram("grca_stage_seconds{stage=\"stop-test\"}");
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(Span, NullRegistryIsNoOp) {
  ScopedRegistry off(nullptr);
  ScopedSpan span("ignored");
  EXPECT_GE(span.stop(), 0.0);
}

TEST(Span, SpanLogWritesJsonl) {
  std::string path = ::testing::TempDir() + "grca_span_log_test.jsonl";
  ASSERT_TRUE(set_span_log(path));
  EXPECT_TRUE(span_log_attached());
  MetricsRegistry registry;
  {
    ScopedSpan span("logged-stage", &registry);
  }
  ASSERT_TRUE(set_span_log(""));  // detach and flush
  EXPECT_FALSE(span_log_attached());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  JsonParser parser(line);
  JsonValue v = parser.parse();
  ASSERT_TRUE(parser.ok()) << line;
  EXPECT_EQ(v.object.at("span").string, "logged-stage");
  EXPECT_GE(v.object.at("dur_us").number, 0.0);
  std::remove(path.c_str());
}

// ---- feed health -----------------------------------------------------------

using telemetry::SourceType;

TEST(FeedHealth, TracksRecordsAndLag) {
  MetricsRegistry registry;
  FeedHealthMonitor monitor(&registry);
  monitor.on_record(SourceType::kSyslog, 1000, 1010);  // 10 s behind
  monitor.on_record(SourceType::kSyslog, 1050, 1050);  // on time
  monitor.on_rejected(SourceType::kSnmp);

  auto status = monitor.status();
  ASSERT_EQ(status.size(), 2u);  // syslog + snmp (the reject marked it seen)
  const auto& syslog = status[0].source == SourceType::kSyslog ? status[0]
                                                               : status[1];
  EXPECT_EQ(syslog.records, 2u);
  EXPECT_EQ(syslog.last_seen, 1050);
  EXPECT_DOUBLE_EQ(syslog.mean_lag, 5.0);
  EXPECT_EQ(monitor.total_records(), 2u);
  EXPECT_EQ(
      registry.counter("grca_feed_records_total{source=\"syslog\"}").value(),
      2u);
  EXPECT_EQ(
      registry.counter("grca_feed_rejected_total{source=\"snmp\"}").value(),
      1u);
  EXPECT_EQ(
      registry.histogram("grca_feed_lag_seconds{source=\"syslog\"}")
          .snapshot()
          .count,
      2u);
}

TEST(FeedHealth, GapAndSilenceAgainstCadence) {
  MetricsRegistry registry;
  FeedHealthMonitor monitor(&registry);
  monitor.on_record(SourceType::kSnmp, 1000, 1000);

  // Within 3 cadences (3 * 300 s): quiet but not silent.
  monitor.observe_clock(1000 + 600);
  auto status = monitor.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].gap, 600);
  EXPECT_FALSE(status[0].silent);

  // Past 3 cadences: silent, and the gauges say so.
  monitor.observe_clock(1000 + 901);
  status = monitor.status();
  EXPECT_EQ(status[0].gap, 901);
  EXPECT_TRUE(status[0].silent);
  EXPECT_EQ(registry.gauge("grca_feed_gap_seconds{source=\"snmp\"}").value(),
            901.0);
  EXPECT_EQ(registry.gauge("grca_feed_silent{source=\"snmp\"}").value(), 1.0);

  // Event-driven feeds alarm much more slowly than pollers.
  EXPECT_GT(FeedHealthMonitor::expected_cadence(SourceType::kBgpMon),
            FeedHealthMonitor::expected_cadence(SourceType::kSnmp));
}

TEST(FeedHealth, BatchesEqualPerRecordCalls) {
  // Records and rejections split over three batches, merged in order and
  // added at once, report what the per-record calls report.
  MetricsRegistry one_registry;
  FeedHealthMonitor one(&one_registry);
  MetricsRegistry batch_registry;
  FeedHealthMonitor batched(&batch_registry);
  std::vector<FeedHealthMonitor::Batch> batches(3);
  util::TimeSec high = 0;
  for (int i = 0; i < 3000; ++i) {
    const auto source = static_cast<SourceType>((i * 7) % 10);
    FeedHealthMonitor::Batch& batch = batches[static_cast<std::size_t>(i) /
                                              1000];
    if (i % 13 == 0) {
      one.on_rejected(source);
      batch.reject(source);
      continue;
    }
    // Out of order: some records land hours behind the high-water mark.
    const util::TimeSec utc = 1000 + i * 10 - (i % 17 == 0 ? 20000 : i % 5);
    high = std::max(high, utc);
    one.on_record(source, utc, high);
    batch.record(source, utc, high);
  }
  FeedHealthMonitor::Batch all;
  for (const FeedHealthMonitor::Batch& b : batches) all.merge(b);
  batched.add(all);

  const auto want = one.status();
  const auto got = batched.status();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].source, want[i].source);
    EXPECT_EQ(got[i].records, want[i].records);
    EXPECT_EQ(got[i].rejected, want[i].rejected);
    EXPECT_EQ(got[i].last_seen, want[i].last_seen);
    EXPECT_EQ(got[i].mean_lag, want[i].mean_lag);
  }
  EXPECT_EQ(batched.total_records(), one.total_records());
  const MetricsRegistry::Snapshot a = one_registry.snapshot();
  const MetricsRegistry::Snapshot b = batch_registry.snapshot();
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (const auto& [name, h] : a.histograms) {
    EXPECT_EQ(h.data.buckets, b.histograms.at(name).data.buckets) << name;
    EXPECT_EQ(h.data.count, b.histograms.at(name).data.count) << name;
    EXPECT_EQ(h.data.sum, b.histograms.at(name).data.sum) << name;
  }
}

TEST(FeedHealth, NullRegistryStillTracksStatus) {
  FeedHealthMonitor monitor(nullptr);
  monitor.on_record(SourceType::kSyslog, 100, 100);
  monitor.on_late_drop(SourceType::kSyslog);
  auto status = monitor.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].records, 1u);
  EXPECT_EQ(status[0].late_drops, 1u);
  EXPECT_EQ(monitor.total_late_drops(), 1u);
}

}  // namespace
}  // namespace grca::obs
