// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the Data Collector: normalization (timezones, naming
// conventions, unknown devices), the record index, routing replay, and the
// event-extraction retrieval processes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <random>
#include <string>
#include <tuple>

#include "collector/extract.h"
#include "collector/normalizer.h"
#include "collector/record_index.h"
#include "collector/routing_rebuild.h"
#include "obs/feed_health.h"
#include "obs/metrics.h"
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
    in_lines.push_back(r.device.str() + "|" + r.field.str() + "|" + r.body +
                       "|" + r.attrs.at("user").str() + "|" +
                       std::to_string(r.timestamp) + "|" +
                       std::to_string(r.value));
  }
  for (const NormalizedRecord& r : out) {
    out_lines.push_back(r.router.str() + "|" + r.field.str() + "|" + r.body +
                        "|" + r.attrs.at("user").str() + "|" +
                        std::to_string(r.utc) +
                        "|" + std::to_string(r.value));
  }
  std::sort(in_lines.begin(), in_lines.end());
  std::sort(out_lines.begin(), out_lines.end());
  EXPECT_EQ(out_lines, in_lines);
}

// The normalize order as it was defined over string fields, before names
// were interned: utc, source, router, device, interface, field, body, value,
// then the attrs as a std::map.
using StringFields =
    std::tuple<util::TimeSec, SourceType, std::string, std::string,
               std::string, std::string, std::string, double,
               std::map<std::string, std::string>>;

StringFields string_fields(const NormalizedRecord& r) {
  std::map<std::string, std::string> attrs;
  for (const auto& [k, v] : r.attrs) attrs.emplace(k.str(), v.str());
  return {r.utc,     r.source,      r.router.str(), r.device.str(),
          r.interface.str(), r.field.str(), r.body,   r.value,
          attrs};
}

TEST(Normalizer, MatchesStringOracle) {
  // Names no other test uses, interned in reverse text order before any
  // record exists, so symbol ids run against the string order. "r10" sorts
  // before "r2": text order is not numeric order either.
  std::vector<std::string> routers, ifaces, fields, users;
  for (int i = 0; i < 12; ++i) {
    routers.push_back("oracle-r" + std::to_string(i));
  }
  for (int i = 0; i < 5; ++i) {
    ifaces.push_back("oracle-if" + std::to_string(i));
    fields.push_back("oracle-f" + std::to_string(i));
    users.push_back("oracle-u" + std::to_string(i));
  }
  auto upper = [](std::string s) {
    for (char& c : s) c = static_cast<char>(std::toupper(c));
    return s;
  };
  std::vector<std::string> vocabulary;
  for (const std::string& r : routers) {
    vocabulary.insert(vocabulary.end(),
                      {r, upper(r), r + ".net.example"});
  }
  for (const auto* words : {&ifaces, &fields, &users}) {
    vocabulary.insert(vocabulary.end(), words->begin(), words->end());
  }
  std::sort(vocabulary.rbegin(), vocabulary.rend());
  for (const std::string& word : vocabulary) (void)util::Symbol(word);

  t::Network net;
  t::PopId east = net.add_pop("oracle-east", util::TimeZone::us_eastern());
  t::PopId west = net.add_pop("oracle-west", util::TimeZone::us_pacific());
  for (std::size_t i = 0; i < routers.size(); ++i) {
    net.add_router(routers[i], i % 2 ? east : west,
                   t::RouterRole::kProviderEdge,
                   util::Ipv4Addr(0x0a010001u + static_cast<std::uint32_t>(i)));
  }
  std::mt19937 rng(5);
  auto pick = [&](const std::vector<std::string>& from) {
    return from[rng() % from.size()];
  };
  telemetry::RecordStream stream;
  for (int i = 0; i < 3000; ++i) {
    RawRecord r;
    r.timestamp = 1000 + static_cast<util::TimeSec>(rng() % 4);
    r.value = static_cast<double>(rng() % 3);
    switch (rng() % 5) {
      case 0:
        r.source = SourceType::kSyslog;
        r.device = upper(pick(routers));
        r.timestamp += 8 * 3600;  // local time somewhere in the US
        r.body = "%SYS-5-RESTART: " + std::to_string(rng() % 2);
        break;
      case 1:
        r.source = SourceType::kSnmp;
        r.device = pick(routers) + ".net.example";
        r.field = pick(fields);
        r.attrs = {{"interface", pick(ifaces)}};
        break;
      case 2:
        r.source = SourceType::kTacacs;
        r.device = pick(routers);
        r.body = "cmd " + std::to_string(rng() % 2);
        r.attrs = {{"user", pick(users)}};
        break;
      case 3:
        r.source = SourceType::kWorkflowLog;
        r.device = pick(routers);
        r.field = pick(fields);
        break;
      default:
        r.source = SourceType::kTacacs;
        r.device = "oracle-ghost";  // unknown: dropped by both
        break;
    }
    stream.push_back(r);
  }

  Normalizer one_by_one(net);
  std::vector<StringFields> want;
  for (const RawRecord& raw : stream) {
    NormalizedRecord r;
    if (one_by_one.normalize(raw, r)) want.push_back(string_fields(r));
  }
  std::stable_sort(want.begin(), want.end());
  Normalizer batch(net);
  std::vector<StringFields> got;
  for (const NormalizedRecord& r : batch.normalize_stream(stream)) {
    got.push_back(string_fields(r));
  }
  EXPECT_EQ(batch.dropped(), one_by_one.dropped());
  EXPECT_GT(batch.dropped(), 0u);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want);
}

/// A stream of every normalized source and of unknown devices, long enough
/// for four normalize workers, whose records arrive out of order.
telemetry::RecordStream mixed_arrivals(const t::Network& net,
                                       std::uint32_t seed) {
  sim::TelemetryEmitter emitter(net);
  std::mt19937 rng(seed);
  const util::TimeSec start = util::make_utc(2010, 1, 10, 0, 0, 0);
  const std::size_t want = 4 * Normalizer::kNormalizeBlockRecords + 1000;
  for (std::size_t i = 0; i < want; ++i) {
    const util::TimeSec at = start + static_cast<util::TimeSec>(i) * 7;
    const t::Router& router = net.routers()[rng() % net.routers().size()];
    switch (rng() % 6) {
      case 0:
        emitter.syslog(router.id, at, "%SYS-5-RESTART: " +
                                          std::to_string(rng() % 3));
        break;
      case 1:
        emitter.snmp_interface(
            net.interfaces()[rng() % net.interfaces().size()].id, at,
            "ifutil", static_cast<double>(rng() % 100));
        break;
      case 2:
        emitter.layer1(
            net.layer1_devices()[rng() % net.layer1_devices().size()].id, at,
            "restored circuit " + std::to_string(rng() % 5));
        break;
      case 3:
        emitter.tacacs(router.id, at, "u" + std::to_string(rng() % 3),
                       "show version");
        break;
      case 4:
        emitter.ospfmon(net.links()[rng() % net.links().size()].id, at,
                        static_cast<int>(rng() % 50));
        break;
      default:
        emitter.workflow(router.id, at, "maintenance");
        break;
    }
  }
  telemetry::RecordStream stream = emitter.take();
  // Unknown devices, rejected per source.
  for (std::size_t i = 0; i < stream.size(); i += 97) {
    stream[i].device = util::Symbol(i % 2 ? "ghost-router" : "GHOST-ROUTER");
  }
  // Late arrivals: a record lands up to 40 records (~5 min) behind, and
  // now and then a whole day behind, so the lags span every bucket.
  for (std::size_t i = 0; i + 40 < stream.size(); ++i) {
    std::swap(stream[i], stream[i + rng() % 40]);
    if (rng() % 500 == 0) stream[i].timestamp -= util::kDay;
  }
  return stream;
}

/// What a normalize run reports besides its records.
struct Reported {
  std::size_t dropped = 0;
  std::vector<std::tuple<SourceType, std::uint64_t, std::uint64_t,
                         util::TimeSec, double>>
      feeds;  // source, records, rejected, last seen, mean lag
  obs::MetricsRegistry::Snapshot metrics;
};

void expect_same_metrics(const obs::MetricsRegistry::Snapshot& a,
                         const obs::MetricsRegistry::Snapshot& b) {
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (const auto& [name, h] : a.histograms) {
    ASSERT_EQ(b.histograms.count(name), 1u) << name;
    const auto& g = b.histograms.at(name);
    EXPECT_EQ(h.bounds, g.bounds) << name;
    EXPECT_EQ(h.data.buckets, g.data.buckets) << name;
    EXPECT_EQ(h.data.count, g.data.count) << name;
    EXPECT_EQ(h.data.sum, g.data.sum) << name;
  }
}

Reported reported(const Normalizer& norm, const obs::FeedHealthMonitor& health,
                  const obs::MetricsRegistry& registry) {
  Reported out;
  out.dropped = norm.dropped();
  for (const auto& s : health.status()) {
    out.feeds.emplace_back(s.source, s.records, s.rejected, s.last_seen,
                           s.mean_lag);
  }
  out.metrics = registry.snapshot();
  return out;
}

TEST(Normalizer, StreamSameAtEveryWorkerCount) {
  t::Network net = small_net();
  const telemetry::RecordStream stream = mixed_arrivals(net, 11);

  // Today's reference: one record at a time, in arrival order.
  obs::MetricsRegistry one_registry;
  obs::FeedHealthMonitor one_health(&one_registry);
  Normalizer one_by_one(net, &one_health);
  std::vector<NormalizedRecord> want;
  for (const RawRecord& raw : stream) {
    NormalizedRecord r;
    if (one_by_one.normalize(raw, r)) want.push_back(r);
  }
  std::stable_sort(want.begin(), want.end(),
                   [](const NormalizedRecord& a, const NormalizedRecord& b) {
                     return normalized_order(a, b) < 0;
                   });
  const Reported want_reported =
      reported(one_by_one, one_health, one_registry);
  ASSERT_GT(want_reported.dropped, 0u);

  for (unsigned workers : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    obs::MetricsRegistry registry;
    obs::FeedHealthMonitor health(&registry);
    Normalizer norm(net, &health);
    std::vector<NormalizedRecord> got = norm.normalize_stream(stream, workers);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(render(got[i]), render(want[i])) << i;
      ASSERT_TRUE(normalized_order(got[i], want[i]) == 0) << i;
    }
    const Reported r = reported(norm, health, registry);
    EXPECT_EQ(r.dropped, want_reported.dropped);
    EXPECT_EQ(r.feeds, want_reported.feeds);
    expect_same_metrics(r.metrics, want_reported.metrics);
  }
}

TEST(Normalizer, StreamArrivalHighWaterSpansCalls) {
  // The lag high-water mark carries from one call to the next, as it does
  // from one record to the next.
  t::Network net = small_net();
  const telemetry::RecordStream stream = mixed_arrivals(net, 12);
  const std::size_t half = stream.size() / 2;
  const telemetry::RecordStream first(stream.begin(),
                                      stream.begin() + half);
  const telemetry::RecordStream second(stream.begin() + half, stream.end());
  obs::MetricsRegistry whole_registry;
  obs::FeedHealthMonitor whole_health(&whole_registry);
  Normalizer whole(net, &whole_health);
  whole.normalize_stream(stream, 4);
  obs::MetricsRegistry split_registry;
  obs::FeedHealthMonitor split_health(&split_registry);
  Normalizer split(net, &split_health);
  split.normalize_stream(first, 4);
  split.normalize_stream(second, 2);
  const Reported a = reported(whole, whole_health, whole_registry);
  const Reported b = reported(split, split_health, split_registry);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.feeds, b.feeds);
  expect_same_metrics(a.metrics, b.metrics);
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

/// A bgpmon announce of 203.0.113.0/24 at `at` with one attr replaced.
RawRecord bgp_announce(const t::Network& net, util::TimeSec at,
                       const std::string& key = "",
                       const std::string& value = "") {
  RawRecord r;
  r.source = SourceType::kBgpMon;
  r.timestamp = at;
  r.body = "announce";
  r.attrs = {{"aspathlen", "1"},         {"egress", net.routers()[4].name},
             {"localpref", "100"},       {"med", "0"},
             {"nexthop", "172.16.0.1"}, {"prefix", "203.0.113.0/24"}};
  if (!key.empty()) r.attrs[key] = value;
  return r;
}

/// Replays one malformed announce at 400 and a good one at 500: the bad one
/// is counted in skipped() and the replay goes on.
void expect_malformed_skipped(const std::string& key,
                              const std::string& value) {
  t::Network net = small_net();
  telemetry::RecordStream stream = {bgp_announce(net, 400, key, value),
                                    bgp_announce(net, 500)};
  RebuiltRouting rebuilt(net);
  ASSERT_NO_THROW(rebuilt.replay(Normalizer(net).normalize_stream(stream)));
  EXPECT_EQ(rebuilt.skipped(), 1u);
  const util::Ipv4Addr dst = util::Ipv4Addr::parse("203.0.113.9");
  EXPECT_FALSE(rebuilt.bgp().best_egress(net.routers()[0].id, dst, 450));
  EXPECT_TRUE(rebuilt.bgp().best_egress(net.routers()[0].id, dst, 600));
}

TEST(RoutingReplay, MalformedLocalPrefIsSkipped) {
  expect_malformed_skipped("localpref", "abc");
}

TEST(RoutingReplay, MalformedPrefixIsSkipped) {
  expect_malformed_skipped("prefix", "zz");
}

TEST(RoutingReplay, MalformedNexthopIsSkipped) {
  expect_malformed_skipped("nexthop", "1.2.3");
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

TEST(Extract, NonNumericLinecardSlotYieldsNoInstance) {
  ExtractFixture f;
  const t::Router& r = f.net.routers()[0];
  f.eng.emitter().syslog(r.id, 7000,
                         "%MCE-2-CRASH: Line card in slot X crashed, resetting");
  f.eng.emitter().syslog(r.id, 7100, telemetry::msg::linecard_crash(2));
  core::EventStore store;
  ASSERT_NO_THROW(store = f.run());
  ASSERT_EQ(store.all("linecard-crash").size(), 1u);
  EXPECT_EQ(store.all("linecard-crash")[0].when.start, 7100);
}

TEST(Extract, MalformedPrefixYieldsNoEgressChange) {
  ExtractFixture f;
  telemetry::RecordStream stream = {bgp_announce(f.net, 400, "prefix", "zz")};
  auto records = Normalizer(f.net).normalize_stream(stream);
  core::EventStore store;
  std::vector<t::RouterId> observers = {f.net.routers()[0].id};
  ASSERT_NO_THROW(EventExtractor(f.net).extract_egress_changes(
      records, f.bgp, observers, store));
  EXPECT_TRUE(store.all("bgp-egress-change").empty());
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
