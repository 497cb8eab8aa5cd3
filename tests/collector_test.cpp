// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the Data Collector: normalization (timezones, naming
// conventions, unknown devices), the record index, routing replay, and the
// event-extraction retrieval processes.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>

#include "collector/extract.h"
#include "collector/normalizer.h"
#include "collector/record_index.h"
#include "collector/routing_rebuild.h"
#include "simulation/emitter.h"
#include "simulation/scenario.h"
#include "topology/topo_gen.h"

namespace grca::collector {
namespace {

namespace t = topology;
using telemetry::RawRecord;
using telemetry::SourceType;

t::Network small_net() {
  t::TopoParams p;
  p.pops = 3;
  p.pers_per_pop = 2;
  p.customers_per_per = 3;
  return t::generate_isp(p);
}

// ---- Normalizer --------------------------------------------------------

TEST(Normalizer, SyslogTimezoneAndCase) {
  t::Network net = small_net();
  sim::TelemetryEmitter emitter(net);
  const t::Router& per = net.routers()[5];
  util::TimeSec utc = util::make_utc(2010, 1, 10, 12, 0, 0);
  emitter.syslog(per.id, utc, "%SYS-5-RESTART: System restarted");
  telemetry::RecordStream stream = emitter.take();
  ASSERT_EQ(stream.size(), 1u);
  // The raw record is uppercase and local-time stamped.
  EXPECT_NE(stream[0].device, per.name);
  EXPECT_NE(stream[0].timestamp, utc);

  Normalizer norm(net);
  NormalizedRecord out;
  ASSERT_TRUE(norm.normalize(stream[0], out));
  EXPECT_EQ(out.router, per.name);
  EXPECT_EQ(out.utc, utc);
}

TEST(Normalizer, SnmpFqdnStripped) {
  t::Network net = small_net();
  sim::TelemetryEmitter emitter(net);
  emitter.snmp_router(net.routers()[0].id, 1200, "cpu5min", 42.0);
  auto stream = emitter.take();
  Normalizer norm(net);
  NormalizedRecord out;
  ASSERT_TRUE(norm.normalize(stream[0], out));
  EXPECT_EQ(out.router, net.routers()[0].name);
  EXPECT_EQ(out.utc, 1200);
  EXPECT_EQ(out.value, 42.0);
}

TEST(Normalizer, UnknownDeviceDropped) {
  t::Network net = small_net();
  Normalizer norm(net);
  RawRecord raw;
  raw.source = SourceType::kSyslog;
  raw.device = "GHOST-ROUTER";
  raw.timestamp = 100;
  NormalizedRecord out;
  EXPECT_FALSE(norm.normalize(raw, out));
  EXPECT_EQ(norm.dropped(), 1u);
}

TEST(Normalizer, Layer1DeviceTimezone) {
  t::Network net = small_net();
  sim::TelemetryEmitter emitter(net);
  const t::Layer1Device& dev = net.layer1_devices()[0];
  util::TimeSec utc = util::make_utc(2010, 2, 1, 8, 30, 0);
  emitter.layer1(dev.id, utc, "APS: protection switch executed for circuit X");
  auto stream = emitter.take();
  Normalizer norm(net);
  NormalizedRecord out;
  ASSERT_TRUE(norm.normalize(stream[0], out));
  EXPECT_EQ(out.device, dev.name);
  EXPECT_EQ(out.utc, utc);
}

TEST(Normalizer, StreamSortedByUtc) {
  t::Network net = small_net();
  sim::TelemetryEmitter emitter(net);
  emitter.syslog(net.routers()[0].id, 2000, "b");
  emitter.syslog(net.routers()[0].id, 1000, "a");
  auto stream = emitter.take();
  Normalizer norm(net);
  auto records = norm.normalize_stream(stream);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_LE(records[0].utc, records[1].utc);
}

/// Two bgpmon withdraws in the same second via the same egress, differing
/// only in the prefix attr, plus ties on every other leading field.
telemetry::RecordStream tied_stream(const t::Network& net) {
  telemetry::RecordStream stream;
  auto bgp = [&](util::TimeSec at, const std::string& prefix) {
    RawRecord r;
    r.source = SourceType::kBgpMon;
    r.timestamp = at;
    r.body = "withdraw";
    r.attrs = {{"egress", "kcy-per18"}, {"prefix", prefix}};
    stream.push_back(r);
  };
  bgp(1263699842, "96.12.65.0/24");
  bgp(1263699842, "96.12.70.0/24");
  bgp(1263699842, "96.12.7.0/24");
  bgp(1263699900, "96.12.65.0/24");
  RawRecord tacacs;
  tacacs.source = SourceType::kTacacs;
  tacacs.timestamp = 1263699842;
  tacacs.device = net.routers()[0].name;
  tacacs.body = "show version";
  for (const char* user : {"alice", "bob", "carol"}) {
    tacacs.attrs = {{"user", user}};
    stream.push_back(tacacs);
  }
  return stream;
}

TEST(Normalizer, OrderDependsOnlyOnContent) {
  t::Network net = small_net();
  telemetry::RecordStream stream = tied_stream(net);
  std::vector<std::string> reference;
  for (const NormalizedRecord& r : Normalizer(net).normalize_stream(stream)) {
    reference.push_back(render(r));
  }
  ASSERT_EQ(reference.size(), stream.size());
  for (std::uint32_t seed = 1; seed <= 20; ++seed) {
    telemetry::RecordStream shuffled = stream;
    std::mt19937 rng(seed);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    std::vector<std::string> lines;
    for (const NormalizedRecord& r :
         Normalizer(net).normalize_stream(shuffled)) {
      lines.push_back(render(r));
    }
    EXPECT_EQ(lines, reference) << "shuffle seed " << seed;
  }
}

TEST(Normalizer, StreamOrderIsFullFieldOrder) {
  // Router names that agree in more than their first 16 bytes, so the
  // compact sort keys tie and the full fields decide.
  t::Network net;
  t::PopId pop = net.add_pop("nyc", util::TimeZone::utc());
  std::vector<std::string> names = {"nyc-provider-edge-router-2",
                                    "nyc-provider-edge-router-10",
                                    "nyc-provider-edge-router-1", "nyc-per"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    net.add_router(names[i], pop, t::RouterRole::kProviderEdge,
                   util::Ipv4Addr(0x0a000001u + static_cast<std::uint32_t>(i)));
  }
  std::mt19937 rng(7);
  telemetry::RecordStream stream;
  for (int i = 0; i < 400; ++i) {
    RawRecord r;
    r.source = rng() % 2 ? SourceType::kTacacs : SourceType::kWorkflowLog;
    r.timestamp = 1000 + static_cast<util::TimeSec>(rng() % 4);
    r.device = names[rng() % names.size()];
    r.field = rng() % 2 ? "maintenance" : "";
    r.body = "cmd " + std::to_string(rng() % 3);
    r.value = static_cast<double>(rng() % 2);
    r.attrs = {{"user", std::to_string(rng() % 3)}};
    stream.push_back(r);
  }
  std::vector<NormalizedRecord> out = Normalizer(net).normalize_stream(stream);
  ASSERT_EQ(out.size(), stream.size());
  auto full = [](const NormalizedRecord& r) {
    return std::tie(r.utc, r.source, r.router, r.device, r.interface, r.field,
                    r.body, r.value, r.attrs);
  };
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(),
                             [&](const NormalizedRecord& a,
                                 const NormalizedRecord& b) {
                               return full(a) < full(b);
                             }));
  // A permutation of the input: every raw record comes out once.
  std::vector<std::string> in_lines, out_lines;
  for (const RawRecord& r : stream) {
    in_lines.push_back(r.device + "|" + r.field + "|" + r.body + "|" +
                       r.attrs.at("user") + "|" +
                       std::to_string(r.timestamp) + "|" +
                       std::to_string(r.value));
  }
  for (const NormalizedRecord& r : out) {
    out_lines.push_back(r.router + "|" + r.field + "|" + r.body + "|" +
                        r.attrs.at("user") + "|" + std::to_string(r.utc) +
                        "|" + std::to_string(r.value));
  }
  std::sort(in_lines.begin(), in_lines.end());
  std::sort(out_lines.begin(), out_lines.end());
  EXPECT_EQ(out_lines, in_lines);
}

TEST(Normalizer, ReusedOutputRecordIsOverwritten) {
  t::Network net = small_net();
  sim::TelemetryEmitter emitter(net);
  emitter.snmp_interface(net.links()[0].side_a, 1200, "ifutil", 91.5);
  const t::Layer1Device& dev = net.layer1_devices()[0];
  emitter.layer1(dev.id, 1300, "APS: protection switch executed");
  auto stream = emitter.take();
  ASSERT_EQ(stream.size(), 2u);
  Normalizer norm(net);
  NormalizedRecord out;
  ASSERT_TRUE(norm.normalize(stream[0], out));
  EXPECT_FALSE(out.interface.empty());
  ASSERT_TRUE(norm.normalize(stream[1], out));
  EXPECT_EQ(out.device, dev.name);
  EXPECT_TRUE(out.router.empty());
  EXPECT_TRUE(out.interface.empty());
  EXPECT_TRUE(out.field.empty());
  EXPECT_TRUE(out.attrs.empty());
  EXPECT_EQ(out.value, stream[1].value);
}

// ---- RecordIndex ------------------------------------------------------------

TEST(RecordIndex, RouterWindowQuery) {
  std::vector<NormalizedRecord> records(3);
  records[0].router = "r1";
  records[0].utc = 100;
  records[1].router = "r1";
  records[1].utc = 300;
  records[2].router = "r2";
  records[2].utc = 200;
  RecordIndex index(std::move(records));
  EXPECT_EQ(index.on_router("r1", 0, 1000).size(), 2u);
  EXPECT_EQ(index.on_router("r1", 150, 1000).size(), 1u);
  EXPECT_EQ(index.on_router("r3", 0, 1000).size(), 0u);
  EXPECT_EQ(index.in_window(150, 250).size(), 1u);
}

// ---- Routing replay -----------------------------------------------------------

TEST(RoutingReplay, OspfWeightChangeReplayed) {
  t::Network net = small_net();
  routing::OspfSim sim_ospf(net);
  routing::BgpSim sim_bgp(sim_ospf);
  sim::ScenarioEngine eng(net, sim_ospf, sim_bgp, 3);
  t::LogicalLinkId link = net.links()[0].id;
  eng.ospf_weight_change(link, 1000, 77);
  auto stream = eng.take_records();

  Normalizer norm(net);
  RebuiltRouting rebuilt(net);
  rebuilt.replay(norm.normalize_stream(stream));
  EXPECT_EQ(rebuilt.ospf().weight_at(link, 999), net.links()[0].ospf_weight);
  EXPECT_GE(rebuilt.ospf().weight_at(link, 1010), 77);  // jittered by <=2 s
}

TEST(RoutingReplay, BgpAnnounceWithdrawReplayed) {
  t::Network net = small_net();
  routing::OspfSim sim_ospf(net);
  routing::BgpSim sim_bgp(sim_ospf);
  sim::ScenarioEngine eng(net, sim_ospf, sim_bgp, 3);
  util::Ipv4Prefix prefix = util::Ipv4Prefix::parse("203.0.113.0/24");
  t::RouterId egress = net.routers()[4].id;
  eng.add_client_prefix(prefix, {egress}, 500);
  auto stream = eng.take_records();

  Normalizer norm(net);
  RebuiltRouting rebuilt(net);
  rebuilt.replay(norm.normalize_stream(stream));
  auto got = rebuilt.bgp().best_egress(net.routers()[0].id,
                                       util::Ipv4Addr::parse("203.0.113.9"),
                                       600);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, egress);
}

// ---- Extraction ------------------------------------------------------------------

struct ExtractFixture {
  t::Network net = small_net();
  routing::OspfSim ospf{net};
  routing::BgpSim bgp{ospf};
  sim::ScenarioEngine eng{net, ospf, bgp, 5};

  core::EventStore run() {
    Normalizer norm(net);
    auto records = norm.normalize_stream(eng.take_records());
    core::EventStore store;
    EventExtractor(net).extract(records, store);
    return store;
  }
};

TEST(Extract, InterfaceFlapPairing) {
  ExtractFixture f;
  t::CustomerSiteId site = f.net.customers()[0].id;
  f.eng.customer_interface_flap(site, 10000);
  core::EventStore store = f.run();
  EXPECT_EQ(store.all("interface-flap").size(), 1u);
  EXPECT_EQ(store.all("interface-down").size(), 1u);
  EXPECT_EQ(store.all("interface-up").size(), 1u);
  EXPECT_EQ(store.all("line-protocol-flap").size(), 1u);
  EXPECT_EQ(store.all("ebgp-flap").size(), 1u);
  const core::EventInstance& flap = store.all("interface-flap")[0];
  EXPECT_EQ(flap.where.type, core::LocationType::kInterface);
  EXPECT_GE(flap.when.duration(), 1);
}

TEST(Extract, UnpairedDownIsNoFlap) {
  ExtractFixture f;
  const t::Router& r = f.net.routers()[0];
  f.eng.emitter().syslog(r.id, 1000,
                         telemetry::msg::link_updown("so-0/0/0", false));
  core::EventStore store = f.run();
  EXPECT_EQ(store.all("interface-down").size(), 1u);
  EXPECT_TRUE(store.all("interface-flap").empty());
}

TEST(Extract, BgpNotifications) {
  ExtractFixture f;
  f.eng.customer_reset(f.net.customers()[1].id, 5000);
  f.eng.hte_unknown(f.net.customers()[2].id, 9000);
  core::EventStore store = f.run();
  EXPECT_EQ(store.all("customer-reset-session").size(), 1u);
  EXPECT_EQ(store.all("ebgp-hte").size(), 1u);
  EXPECT_EQ(store.all("ebgp-flap").size(), 2u);
}

TEST(Extract, SnmpThresholds) {
  ExtractFixture f;
  t::LogicalLinkId link = f.net.links()[0].id;
  f.eng.link_congestion(link, 3000, 91.0);
  f.eng.link_loss(link, 9000, 500.0);
  // Below-threshold readings must NOT become events.
  f.eng.emitter().snmp_interface(f.net.links()[1].side_a, 3300, "ifutil", 55.0);
  core::EventStore store = f.run();
  EXPECT_EQ(store.all("link-congestion").size(), 2u);  // two intervals emitted
  EXPECT_EQ(store.all("link-loss").size(), 1u);
}

TEST(Extract, CpuEvents) {
  ExtractFixture f;
  const t::Router& per = *std::find_if(
      f.net.routers().begin(), f.net.routers().end(), [](const t::Router& r) {
        return r.role == t::RouterRole::kProviderEdge;
      });
  f.eng.cpu_spike(per.id, 2000, 1);
  f.eng.cpu_high_avg(per.id, 8000, 1);
  core::EventStore store = f.run();
  EXPECT_EQ(store.all("cpu-high-spike").size(), 1u);
  EXPECT_EQ(store.all("cpu-high-avg").size(), 1u);
  EXPECT_EQ(store.all("ebgp-hte").size(), 2u);
}

TEST(Extract, Layer1Restorations) {
  ExtractFixture f;
  std::vector<t::PhysicalLinkId> tails;
  for (const t::PhysicalLink& pl : f.net.physical_links()) {
    if (pl.access_port.valid() && pl.kind == t::Layer1Kind::kSonetRing) {
      tails.push_back(pl.id);
    }
  }
  ASSERT_FALSE(tails.empty());
  f.eng.access_layer1_restoration(tails[0], 4000,
                                  sim::RestorationKind::kSonet);
  core::EventStore store = f.run();
  EXPECT_EQ(store.all("sonet-restoration").size(), 1u);
  EXPECT_EQ(store.all("interface-flap").size(), 1u);
}

TEST(Extract, PimAdjacencyAndUplink) {
  ExtractFixture f;
  auto sites = f.net.mvpn_sites("mvpn-1");
  ASSERT_GE(sites.size(), 2u);
  f.eng.mvpn_customer_flap(sites[0], 20000);
  core::EventStore store = f.run();
  EXPECT_FALSE(store.all("pim-adjacency-flap").empty());
  const core::EventInstance& adj = store.all("pim-adjacency-flap")[0];
  EXPECT_EQ(adj.where.type, core::LocationType::kVpnNeighbor);
  EXPECT_EQ(adj.where.c, "mvpn-1");

  t::RouterId pe =
      f.net.interface(f.net.customer(sites[0]).attachment).router;
  f.eng.uplink_pim_loss(pe, 40000);
  core::EventStore store2 = f.run();
  EXPECT_FALSE(store2.all("uplink-pim-adjacency-change").empty());
}

TEST(Extract, TacacsCostCommands) {
  ExtractFixture f;
  t::LogicalLinkId link = f.net.links()[0].id;
  f.eng.cost_out_link(link, 5000);
  f.eng.cost_in_link(link, 9000);
  core::EventStore store = f.run();
  EXPECT_EQ(store.all("cmd-cost-out").size(), 1u);
  EXPECT_EQ(store.all("cmd-cost-in").size(), 1u);
  // OSPFMon also saw both transitions.
  EXPECT_EQ(store.all("ospf-reconvergence").size(), 2u);
  EXPECT_EQ(store.all("link-cost-outdown").size(), 1u);
  EXPECT_EQ(store.all("link-cost-inup").size(), 1u);
}

TEST(Extract, RouterCostSuppressesLinkCost) {
  ExtractFixture f;
  // Cost out an entire router: one router-cost-inout event, and its
  // constituent link transitions are folded in (Table VIII semantics).
  t::RouterId core1 = f.net.routers()[0].id;
  ASSERT_GE(f.net.links_of_router(core1).size(), 2u);
  f.eng.cost_out_router(core1, 5000);
  core::EventStore store = f.run();
  auto router_events = store.all("router-cost-inout");
  ASSERT_EQ(router_events.size(), 1u);
  EXPECT_EQ(router_events[0].attrs.at("direction"), "out");
  EXPECT_TRUE(store.all("link-cost-outdown").empty());
}

TEST(Extract, LinecardCrashSignature) {
  ExtractFixture f;
  const t::Router& per = *std::find_if(
      f.net.routers().begin(), f.net.routers().end(), [](const t::Router& r) {
        return r.role == t::RouterRole::kProviderEdge;
      });
  f.eng.linecard_crash(per.line_cards[0], 7000);
  core::EventStore store = f.run();
  EXPECT_EQ(store.all("linecard-crash").size(), 1u);
  EXPECT_EQ(store.all("linecard-crash")[0].where.type,
            core::LocationType::kLineCard);
}

TEST(Extract, EgressChangeDetection) {
  ExtractFixture f;
  util::Ipv4Prefix prefix = util::Ipv4Prefix::parse("203.0.113.0/24");
  t::RouterId near = f.net.routers()[2].id;
  t::RouterId far = f.net.routers()[10].id;
  f.eng.add_client_prefix(prefix, {near, far}, 1000);
  // Withdraw the preferred route: egress moves to the backup.
  routing::BgpRoute preferred;
  preferred.prefix = prefix;
  preferred.egress = near;
  preferred.next_hop = util::Ipv4Addr(prefix.address().value() + 1);
  preferred.local_pref = 200;
  preferred.as_path_len = 2;
  f.eng.emitter().bgpmon(preferred, 5000, false);

  Normalizer norm(f.net);
  auto records = norm.normalize_stream(f.eng.take_records());
  RebuiltRouting rebuilt(f.net);
  rebuilt.replay(records);
  core::EventStore store;
  EventExtractor(f.net).extract_egress_changes(
      records, rebuilt.bgp(), {f.net.routers()[0].id}, store);
  // The initial announcements flip the egress from nothing -> near (one
  // event each at t=1000 while candidates accumulate) and the withdrawal
  // flips near -> far.
  auto events = store.all("bgp-egress-change");
  ASSERT_FALSE(events.empty());
  bool saw_withdraw_flip = false;
  for (const core::EventInstance& e : events) {
    if (e.when.start == 5000) {
      saw_withdraw_flip = true;
      EXPECT_EQ(e.attrs.at("from"),
                f.net.router(near).name);
      EXPECT_EQ(e.attrs.at("to"), f.net.router(far).name);
    }
  }
  EXPECT_TRUE(saw_withdraw_flip);
}

// ---- anomaly-detection retrieval (Table I third extraction style) --------

struct AnomalyFixture : ExtractFixture {
  t::CdnNodeId node = net.cdn_nodes().front().id;
  util::Ipv4Addr client = util::Ipv4Addr::parse("203.0.113.5");

  core::EventStore run_anomaly() {
    Normalizer norm(net);
    auto records = norm.normalize_stream(eng.take_records());
    core::EventStore store;
    ExtractOptions opts;
    opts.anomaly_detection = true;
    EventExtractor(net, opts).extract(records, store);
    return store;
  }

  /// Emits `n` baseline readings around `level` followed by one at `spike`.
  void rtt_series(int n, double level, double spike) {
    for (int i = 0; i < n; ++i) {
      eng.emitter().cdn(node, client, 1000 + 60 * i,
                        "rtt", level + eng.rng().uniform(-2.0, 2.0));
    }
    eng.emitter().cdn(node, client, 1000 + 60 * n, "rtt", spike);
  }
};

TEST(Extract, AnomalyCatchesSpikeBelowStaticThreshold) {
  // Baseline ~20 ms, spike to 70 ms: the static threshold (100 ms) misses
  // it; the baseline-relative detector flags it.
  AnomalyFixture f;
  f.rtt_series(30, 20.0, 70.0);
  Normalizer norm(f.net);
  auto records = norm.normalize_stream(f.eng.take_records());
  core::EventStore statics, anomaly;
  EventExtractor(f.net).extract(records, statics);
  ExtractOptions opts;
  opts.anomaly_detection = true;
  EventExtractor(f.net, opts).extract(records, anomaly);
  EXPECT_TRUE(statics.all("cdn-rtt-increase").empty());
  EXPECT_EQ(anomaly.all("cdn-rtt-increase").size(), 1u);
}

TEST(Extract, AnomalyIgnoresHighStableBaseline) {
  // A chronically slow path (~150 ms) should not alarm on every reading the
  // way the static 100 ms threshold does.
  AnomalyFixture f;
  f.rtt_series(30, 150.0, 151.0);
  core::EventStore anomaly = f.run_anomaly();
  EXPECT_TRUE(anomaly.all("cdn-rtt-increase").empty());
}

TEST(Extract, AnomalyDetectsThroughputDrop) {
  AnomalyFixture f;
  for (int i = 0; i < 30; ++i) {
    f.eng.emitter().cdn(f.node, f.client, 1000 + 60 * i, "tput",
                        800.0 + f.eng.rng().uniform(-20.0, 20.0));
  }
  f.eng.emitter().cdn(f.node, f.client, 1000 + 60 * 30, "tput", 150.0);
  core::EventStore store = f.run_anomaly();
  EXPECT_EQ(store.all("cdn-tput-drop").size(), 1u);
  EXPECT_TRUE(store.all("cdn-rtt-increase").empty());
}

TEST(Extract, AnomalyRequiresHistory) {
  AnomalyFixture f;
  f.rtt_series(4, 20.0, 500.0);  // below anomaly_min_history
  EXPECT_TRUE(f.run_anomaly().all("cdn-rtt-increase").empty());
}

TEST(Extract, AnomalyPerfProbesBaselinePerPopPair) {
  ExtractFixture f;
  t::PopId a = f.net.pops()[0].id, b = f.net.pops()[1].id;
  for (int i = 0; i < 30; ++i) {
    f.eng.emitter().perf(a, b, 1000 + 300 * i, "loss",
                         0.1 + f.eng.rng().uniform(0.0, 0.05));
  }
  f.eng.emitter().perf(a, b, 1000 + 300 * 30, "loss", 4.0);
  Normalizer norm(f.net);
  auto records = norm.normalize_stream(f.eng.take_records());
  core::EventStore store;
  ExtractOptions opts;
  opts.anomaly_detection = true;
  EventExtractor(f.net, opts).extract(records, store);
  ASSERT_EQ(store.all("innet-loss-increase").size(), 1u);
  EXPECT_EQ(store.all("innet-loss-increase")[0].where.type,
            core::LocationType::kPopPair);
}

TEST(Extract, RedefinedThresholdChangesEvents) {
  // §II-A: an application can redefine "link congestion" as >= 90%.
  ExtractFixture f;
  t::LogicalLinkId link = f.net.links()[0].id;
  f.eng.link_congestion(link, 3000, 85.0);
  Normalizer norm(f.net);
  auto records = norm.normalize_stream(f.eng.take_records());
  core::EventStore lax, strict;
  EventExtractor(f.net).extract(records, lax);
  ExtractOptions opts;
  opts.util_threshold = 90.0;
  EventExtractor(f.net, opts).extract(records, strict);
  EXPECT_GT(lax.all("link-congestion").size(),
            strict.all("link-congestion").size());
}

}  // namespace
}  // namespace grca::collector
