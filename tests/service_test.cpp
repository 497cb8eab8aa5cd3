// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the live service plane: the result-browser query API (filters,
// renderers, row ordering), the feed-health alert engine (threshold edge
// semantics, synthesized missing-data evidence joining real diagnoses), the
// ServicePlane snapshot/routing layer, and the concurrency contract — many
// reader threads hammering query snapshots and the exporter during live
// publishes must neither race (the sanitizer CI job runs this suite under
// TSan) nor change any served verdict.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/rule_dsl.h"
#include "net/socket.h"
#include "obs/export.h"
#include "routing/bgp.h"
#include "routing/ospf.h"
#include "service/alerts.h"
#include "service/result_api.h"
#include "service/service_plane.h"
#include "topology/network.h"

namespace grca::service {
namespace {

namespace t = topology;
using util::Ipv4Addr;
using util::Ipv4Prefix;
using util::TimeSec;

// --- QueryFilter ----------------------------------------------------------

ApiItem item(const std::string& primary, TimeSec start, TimeSec end,
             const std::string& location = "pop:nyc") {
  ApiItem out;
  out.symptom = "symptom";
  out.when = {start, end};
  out.location = location;
  out.primary = primary;
  return out;
}

TEST(QueryFilter, ParsesBoundsLocationAndCause) {
  QueryFilter f = QueryFilter::parse(
      {{"from", "100"}, {"to", "200"}, {"location", "nyc"}, {"cause", "x"}});
  ASSERT_TRUE(f.from && f.to);
  EXPECT_EQ(*f.from, 100);
  EXPECT_EQ(*f.to, 200);
  EXPECT_EQ(f.location, "nyc");
  EXPECT_EQ(f.cause, "x");
  EXPECT_THROW(QueryFilter::parse({{"from", "yesterday"}}), ParseError);
}

TEST(QueryFilter, MatchesOnOverlapSubstringAndExactCause) {
  QueryFilter f;
  f.from = 100;
  f.to = 200;
  EXPECT_TRUE(f.matches(item("x", 150, 160)));   // inside the window
  EXPECT_TRUE(f.matches(item("x", 50, 100)));    // touches from
  EXPECT_TRUE(f.matches(item("x", 200, 300)));   // touches to
  EXPECT_FALSE(f.matches(item("x", 10, 99)));    // entirely before
  EXPECT_FALSE(f.matches(item("x", 201, 300)));  // entirely after

  QueryFilter loc;
  loc.location = "nyc";
  EXPECT_TRUE(loc.matches(item("x", 0, 1, "pop:nyc")));
  EXPECT_FALSE(loc.matches(item("x", 0, 1, "pop:chi")));

  QueryFilter cause;
  cause.cause = "fiber-cut";
  EXPECT_TRUE(cause.matches(item("fiber-cut", 0, 1)));
  EXPECT_FALSE(cause.matches(item("fiber-cut-2", 0, 1)));
}

// --- Renderers ------------------------------------------------------------

TEST(Renderers, BreakdownHonorsDisplayOrderThenCount) {
  std::vector<ApiItem> items = {item("b", 0, 1), item("b", 0, 1),
                                item("a", 0, 1), item("c", 0, 1),
                                item("c", 0, 1), item("c", 0, 1)};
  DisplayConfig display;
  display.order = {"a"};  // pinned first despite the lowest count
  display.names["a"] = "Cause A";
  std::string json = render_breakdown(items, {}, display);
  std::size_t a = json.find("\"cause\": \"a\"");
  std::size_t b = json.find("\"cause\": \"b\"");
  std::size_t c = json.find("\"cause\": \"c\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(c, std::string::npos);
  EXPECT_LT(a, c);  // display order beats count
  EXPECT_LT(c, b);  // then descending count (3 before 2)
  EXPECT_NE(json.find("\"label\": \"Cause A\""), std::string::npos);
  EXPECT_NE(json.find("\"total\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3, \"percent\": 50.00"), std::string::npos);
}

TEST(Renderers, TrendingBucketsByUtcDay) {
  TimeSec day0 = util::make_utc(2010, 4, 1);
  std::vector<ApiItem> items = {
      item("x", day0 + 10, day0 + 20), item("x", day0 + 30, day0 + 40),
      item("x", day0 + util::kDay + 5, day0 + util::kDay + 6)};
  std::string json = render_trending(items, {}, {});
  EXPECT_NE(json.find("\"day\": \"2010-04-01\", \"day_utc\": " +
                      std::to_string(day0) +
                      ", \"cause\": \"x\", \"label\": \"x\", \"count\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("\"day\": \"2010-04-02\""), std::string::npos);
}

TEST(Renderers, DrilldownCapsRenderedButCountsAll) {
  std::vector<ApiItem> items;
  for (int i = 0; i < 5; ++i) items.push_back(item("x", i * 100, i * 100 + 1));
  std::string json = render_drilldown(items, {}, {}, "x", /*limit=*/2);
  EXPECT_NE(json.find("\"total\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"rendered\": 2"), std::string::npos);
  // The other cause selects nothing.
  std::string none = render_drilldown(items, {}, {}, "y", 10);
  EXPECT_NE(none.find("\"total\": 0"), std::string::npos);
}

// --- Alert rule parsing ---------------------------------------------------

TEST(AlertRules, ParsesRuleFileSyntax) {
  std::vector<AlertRule> rules = parse_alert_rules(
      "# comment\n"
      "\n"
      "silent grca_feed_silent > 0.5\n"
      "lag grca_feed_lag_seconds > 300 backdate 7200 hold 900 event no-data\n");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].name, "silent");
  EXPECT_EQ(rules[0].event, kMissingDataEvent);
  EXPECT_EQ(rules[1].backdate, 7200);
  EXPECT_EQ(rules[1].hold, 900);
  EXPECT_EQ(rules[1].event, "no-data");
  EXPECT_THROW(parse_alert_rules("bad line\n"), ParseError);
  EXPECT_THROW(parse_alert_rules("a m >= 1 x\n"), ParseError);
  EXPECT_THROW(parse_alert_rules("a m > 1 backdate\n"), ParseError);
}

TEST(AlertRules, NumbersParseInFull) {
  EXPECT_THROW(parse_alert_rules("a m > 5x\n"), ParseError);
  EXPECT_THROW(parse_alert_rules("a m > 1 backdate 60s\n"), ParseError);
  EXPECT_THROW(parse_alert_rules("a m > 1 hold 9z\n"), ParseError);
  try {
    parse_alert_rules("ok m > 1\na m > 5x\n");
    ADD_FAILURE() << "5x parsed as a threshold";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "alert rules line 2: bad threshold '5x'");
  }
}

// --- AlertEngine edge semantics -------------------------------------------

AlertRule test_rule() {
  AlertRule rule;
  rule.name = "test";
  rule.metric = "watched_gauge";
  rule.threshold = 1.0;
  rule.backdate = 100;
  rule.hold = 50;
  return rule;
}

TEST(AlertEngine, RisingEdgeSynthesizesPerScopeLocation) {
  obs::MetricsRegistry reg;
  obs::Gauge& gauge = reg.gauge("watched_gauge");
  AlertEngine engine({test_rule()},
                     {core::Location::pop("nyc"), core::Location::pop("chi")},
                     &reg);

  gauge.set(0.5);
  EXPECT_TRUE(engine.evaluate(1000).empty());  // below threshold
  EXPECT_EQ(engine.active_count(), 0u);

  gauge.set(2.0);
  std::vector<core::EventInstance> events = engine.evaluate(1010);
  ASSERT_EQ(events.size(), 2u);  // one instance per scope location
  EXPECT_EQ(events[0].name, kMissingDataEvent);
  EXPECT_EQ(events[0].when.start, 910);  // backdated 100s
  EXPECT_EQ(events[0].when.end, 1060);   // held 50s ahead
  EXPECT_EQ(events[0].attrs.at("rule"), "test");
  ASSERT_EQ(engine.alarms().size(), 1u);
  EXPECT_TRUE(engine.alarms()[0].active);
  EXPECT_EQ(engine.alarms()[0].since, 1010);
  EXPECT_EQ(engine.active_count(), 1u);
  EXPECT_EQ(engine.events_synthesized(), 2u);
}

TEST(AlertEngine, ActiveAlarmExtendsCoverageWithoutNewAlarms) {
  obs::MetricsRegistry reg;
  obs::Gauge& gauge = reg.gauge("watched_gauge");
  AlertEngine engine({test_rule()}, {core::Location::pop("nyc")}, &reg);

  gauge.set(2.0);
  ASSERT_EQ(engine.evaluate(1000).size(), 1u);  // covered until 1050
  // Well inside coverage: nothing new.
  EXPECT_TRUE(engine.evaluate(1010).empty());
  // Near the coverage edge (now + hold/2 > covered_until): extension events
  // bridge seamlessly from the old coverage end — a long outage stays one
  // alarm with contiguous coverage.
  std::vector<core::EventInstance> ext = engine.evaluate(1030);
  ASSERT_EQ(ext.size(), 1u);
  EXPECT_EQ(ext[0].when.start, 1050);
  EXPECT_EQ(ext[0].when.end, 1080);
  EXPECT_EQ(engine.alarms().size(), 1u);  // still the same alarm

  // Falling edge: resolved, no further events.
  gauge.set(0.0);
  EXPECT_TRUE(engine.evaluate(1100).empty());
  EXPECT_FALSE(engine.alarms()[0].active);
  EXPECT_EQ(engine.alarms()[0].until, 1100);
  EXPECT_EQ(engine.active_count(), 0u);

  // A new excursion is a new alarm.
  gauge.set(5.0);
  EXPECT_EQ(engine.evaluate(1200).size(), 1u);
  EXPECT_EQ(engine.alarms().size(), 2u);
}

TEST(AlertEngine, HistogramRuleFiresOnMean) {
  obs::MetricsRegistry reg;
  obs::Histogram& hist = reg.histogram("watched_hist");
  AlertRule rule = test_rule();
  rule.metric = "watched_hist";
  rule.threshold = 10.0;
  AlertEngine engine({rule}, {core::Location::pop("nyc")}, &reg);

  hist.observe(4.0);
  hist.observe(6.0);  // mean 5
  EXPECT_TRUE(engine.evaluate(1000).empty());
  hist.observe(40.0);  // mean ~16.7
  EXPECT_EQ(engine.evaluate(1010).size(), 1u);
}

// --- missing-data evidence joining a real diagnosis -----------------------

/// One-PoP micro network (the engine_test pattern, trimmed): a PER with a
/// customer behind ge-0/0/2.
struct Micro {
  t::Network net;
  routing::OspfSim ospf;
  routing::BgpSim bgp;
  core::LocationMapper mapper;

  static t::Network build() {
    t::Network net;
    t::PopId pop = net.add_pop("nyc", util::TimeZone::us_eastern());
    t::RouterId per = net.add_router("nyc-per1", pop,
                                     t::RouterRole::kProviderEdge,
                                     Ipv4Addr::parse("10.255.0.1"));
    t::LineCardId pc = net.add_line_card(per, 0);
    auto cust = net.add_interface(per, pc, "ge-0/0/2",
                                  t::InterfaceKind::kCustomerFacing,
                                  Ipv4Addr::parse("172.16.0.1"));
    net.add_customer_site("cust-1", cust, Ipv4Addr::parse("172.16.0.2"), 65001,
                          Ipv4Prefix::parse("96.0.0.0/24"));
    return net;
  }

  Micro() : net(build()), ospf(net), bgp(ospf), mapper(net, ospf, bgp) {}
};

core::DiagnosisGraph micro_graph() {
  core::DiagnosisGraph g;
  core::load_dsl(R"(
event ebgp-flap {
  location router-neighbor
}
event interface-flap {
  location interface
}
rule ebgp-flap -> interface-flap {
  priority 180
  symptom start-start 185 5
  diagnostic start-end 5 15
  join interface
}
graph {
  root ebgp-flap
}
)",
                 g);
  return g;
}

core::EventInstance flap_symptom() {
  return core::EventInstance{
      "ebgp-flap", {1000, 1060},
      core::Location::router_neighbor("nyc-per1", "172.16.0.2"), {}};
}

TEST(MissingData, SurfacesWhenNothingElseExplains) {
  Micro m;
  core::DiagnosisGraph graph = micro_graph();
  add_missing_data_support(graph);

  core::EventStore store;
  store.add(flap_symptom());
  // The alert engine's synthesized instance: PoP-level, spanning the outage.
  store.add(core::EventInstance{
      kMissingDataEvent, {500, 2000}, core::Location::pop("nyc"), {}});
  core::RcaEngine engine(graph, store, m.mapper);
  core::Diagnosis d = engine.diagnose(flap_symptom());
  EXPECT_EQ(d.primary(), kMissingDataEvent);
}

TEST(MissingData, RealCauseAlwaysOutranksAlarmEvidence) {
  Micro m;
  core::DiagnosisGraph graph = micro_graph();
  add_missing_data_support(graph);

  core::EventStore store;
  store.add(flap_symptom());
  store.add(core::EventInstance{
      kMissingDataEvent, {500, 2000}, core::Location::pop("nyc"), {}});
  store.add(core::EventInstance{
      "interface-flap", {995, 1005},
      core::Location::interface("nyc-per1", "ge-0/0/2"), {}});
  core::RcaEngine engine(graph, store, m.mapper);
  core::Diagnosis d = engine.diagnose(flap_symptom());
  // The library edge's priority 180 beats the alarm edge's priority 1.
  EXPECT_EQ(d.primary(), "interface-flap");
  // The alarm still shows up as (low-priority) supporting evidence.
  EXPECT_TRUE(d.has_evidence(kMissingDataEvent));
}

TEST(MissingData, OutsideTheAlarmWindowStaysUnknown) {
  Micro m;
  core::DiagnosisGraph graph = micro_graph();
  add_missing_data_support(graph);

  core::EventStore store;
  store.add(flap_symptom());
  store.add(core::EventInstance{
      kMissingDataEvent, {10000, 12000}, core::Location::pop("nyc"), {}});
  core::RcaEngine engine(graph, store, m.mapper);
  EXPECT_EQ(engine.diagnose(flap_symptom()).primary(), "unknown");
}

// --- ServicePlane ---------------------------------------------------------

/// A plane published from one diagnosed micro symptom.
struct PlaneFixture {
  Micro micro;
  core::EventStore store;
  std::unique_ptr<core::RcaEngine> engine;
  ServicePlane plane;

  PlaneFixture() {
    graph = micro_graph();
    add_missing_data_support(graph);
    store.add(flap_symptom());
    store.add(core::EventInstance{
        "interface-flap", {995, 1005},
        core::Location::interface("nyc-per1", "ge-0/0/2"), {}});
    engine = std::make_unique<core::RcaEngine>(graph, store, micro.mapper);
    plane.add_diagnoses({engine->diagnose(flap_symptom())});
    plane.publish(2000);
  }

  core::DiagnosisGraph graph;
};

TEST(ServicePlane, RoutesEndpointsAndErrors) {
  PlaneFixture fx;
  EXPECT_EQ(fx.plane.published_items(), 1u);
  EXPECT_EQ(fx.plane.get("/healthz"), "ok\n");

  net::HttpRequest req;
  req.method = "GET";
  req.path = "/nope";
  EXPECT_EQ(fx.plane.handle(req).status, 404);

  req.path = "/api/breakdown";
  req.query["from"] = "not-a-number";
  net::HttpResponse bad = fx.plane.handle(req);
  EXPECT_EQ(bad.status, 400);
  EXPECT_NE(bad.body.find("error"), std::string::npos);

  req.query.clear();
  net::HttpResponse ok = fx.plane.handle(req);
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.content_type, "application/json");
  EXPECT_NE(ok.body.find("\"cause\": \"interface-flap\""), std::string::npos);
}

TEST(ServicePlane, HandleEqualsDirectRenderers) {
  PlaneFixture fx;
  // The endpoint and the renderer must agree byte for byte — this is the
  // identity the CI smoke job leans on when diffing live curls vs dumps.
  std::vector<ApiItem> items = {
      to_api_item(fx.engine->diagnose(flap_symptom()))};
  EXPECT_EQ(fx.plane.get("/api/breakdown"), render_breakdown(items, {}, {}));
  EXPECT_EQ(fx.plane.get("/api/trending"), render_trending(items, {}, {}));
  EXPECT_EQ(fx.plane.get("/api/drilldown/interface-flap"),
            render_drilldown(items, {}, {}, "interface-flap", 100));
  EXPECT_EQ(fx.plane.get("/api/health"), render_health({}, 2000, 0));
  // Filters flow through the query string.
  QueryFilter outside;
  outside.to = 10;
  EXPECT_EQ(fx.plane.get("/api/breakdown?to=10"),
            render_breakdown(items, outside, {}));
}

TEST(ServicePlane, MetricsEndpointServesPrometheusExposition) {
  obs::MetricsRegistry reg;
  obs::ScopedRegistry scoped(&reg);
  reg.counter("grca_events_total").inc();
  ServicePlane plane;
  net::HttpRequest req;
  req.method = "GET";
  req.path = "/metrics";
  net::HttpResponse resp = plane.handle(req);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(resp.body, obs::render_prometheus(reg));
  EXPECT_NE(resp.body.find("# TYPE grca_events_total counter"),
            std::string::npos);
}

TEST(ServicePlane, LiveServerMatchesDirectHandle) {
  PlaneFixture fx;
  fx.plane.start();
  std::string expected = fx.plane.get("/api/breakdown");
  net::Fd client = net::connect_loopback(fx.plane.port());
  ASSERT_TRUE(client.valid());
  std::string raw = "GET /api/breakdown HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(client.get(), raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));
  std::string data;
  char buf[4096];
  while (data.find("\r\n\r\n") == std::string::npos ||
         data.substr(data.find("\r\n\r\n") + 4).size() < expected.size()) {
    ssize_t n = ::recv(client.get(), buf, sizeof buf, 0);
    if (n <= 0) break;
    data.append(buf, static_cast<std::size_t>(n));
  }
  fx.plane.stop();
  ASSERT_NE(data.find("\r\n\r\n"), std::string::npos);
  EXPECT_EQ(data.substr(data.find("\r\n\r\n") + 4), expected);
  EXPECT_NE(data.find("Content-Type: application/json"), std::string::npos);
}

// --- Concurrency: scrapes during live publishes (TSan coverage) -----------

TEST(ServicePlane, ConcurrentScrapesNeverChangeVerdicts) {
  obs::MetricsRegistry reg;
  obs::ScopedRegistry scoped(&reg);
  Micro micro;
  core::DiagnosisGraph graph = micro_graph();
  add_missing_data_support(graph);

  // Run the same publish sequence twice — once quiescent, once with eight
  // reader threads hammering the query snapshots and the exporter — and
  // require the final served bytes to be identical.
  auto run = [&](bool hammer) {
    core::EventStore store;
    store.add(flap_symptom());
    store.add(core::EventInstance{
        "interface-flap", {995, 1005},
        core::Location::interface("nyc-per1", "ge-0/0/2"), {}});
    core::RcaEngine engine(graph, store, micro.mapper);
    ServicePlane plane;
    std::atomic<bool> done{false};
    std::vector<std::thread> readers;
    if (hammer) {
      for (int i = 0; i < 8; ++i) {
        readers.emplace_back([&plane, &done] {
          net::HttpRequest metrics_req;
          metrics_req.method = "GET";
          metrics_req.path = "/metrics";
          while (!done.load(std::memory_order_relaxed)) {
            (void)plane.get("/api/breakdown");
            (void)plane.get("/api/trending");
            (void)plane.get("/api/health");
            (void)plane.handle(metrics_req);
          }
        });
      }
    }
    for (int round = 0; round < 50; ++round) {
      plane.add_diagnoses({engine.diagnose(flap_symptom())});
      plane.set_health({});
      plane.publish(2000 + round);
    }
    done.store(true);
    for (std::thread& reader : readers) reader.join();
    return plane.get("/api/breakdown") + plane.get("/api/trending") +
           plane.get("/api/health");
  };

  std::string quiescent = run(false);
  std::string hammered = run(true);
  EXPECT_EQ(quiescent, hammered);
}

}  // namespace
}  // namespace grca::service
