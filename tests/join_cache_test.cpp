// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The memoized spatial-join layer: location interning, routing epochs, the
// per-worker JoinMemo itself, and the engine integration. The load-bearing
// properties:
//   - cached diagnosis output is byte-identical to the uncached reference
//     at every thread count and across repeated calls on one engine,
//   - a mid-window OSPF reroute invalidates exactly the stale projections
//     (an off-path link must not join after the reroute),
//   - one memo per thread over a shared table and mapper is race-free (the
//     TSan gate),
//   - allocation-free store queries return exactly what query() returns.

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/event_store.h"
#include "core/join_memo.h"
#include "core/location.h"
#include "core/location_table.h"
#include "core/rule_dsl.h"
#include "obs/metrics.h"
#include "routing/bgp.h"
#include "routing/ospf.h"
#include "topology/topo_gen.h"
#include "util/rng.h"

namespace grca::core {
namespace {

using topology::InterfaceKind;
using topology::LogicalLinkId;
using topology::Network;
using topology::PopId;
using topology::RouterId;
using topology::RouterRole;
using util::Ipv4Addr;
using util::Ipv4Prefix;
using util::TimeSec;

// ---- LocationTable ---------------------------------------------------------

TEST(LocationTable, InternIsIdempotentAndDense) {
  LocationTable table;
  LocId r1 = table.intern(Location::router("r1"));
  LocId r2 = table.intern(Location::router("r2"));
  EXPECT_EQ(r1, 0u);
  EXPECT_EQ(r2, 1u);
  EXPECT_EQ(table.intern(Location::router("r1")), r1);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.at(r1), Location::router("r1"));
  EXPECT_EQ(table.type_of(r2), LocationType::kRouter);
  EXPECT_EQ(table.find(Location::router("r2")), r2);
  EXPECT_FALSE(table.find(Location::pop("nyc")).has_value());
}

TEST(LocationTable, DistinguishesTypeAndComponents) {
  LocationTable table;
  LocId a = table.intern(Location::router("x"));
  LocId b = table.intern(Location::pop("x"));
  LocId c = table.intern(Location::interface("x", "ge-0"));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

TEST(LocationHash, EqualValuesHashEqualAndBoundariesMatter) {
  std::hash<Location> h;
  EXPECT_EQ(h(Location::interface("r1", "ge-0/0/0")),
            h(Location::interface("r1", "ge-0/0/0")));
  // Component boundaries are part of the hash: ("ab","c") vs ("a","bc").
  EXPECT_NE(h(Location::interface("ab", "c")), h(Location::interface("a", "bc")));
  EXPECT_NE(h(Location::router("x")), h(Location::pop("x")));
}

// ---- Routing epochs --------------------------------------------------------

TEST(RoutingEpochs, OspfEpochAdvancesOnlyAtChangeInstants) {
  Network net = topology::generate_isp(topology::TopoParams{});
  routing::OspfSim ospf(net);
  LogicalLinkId link = net.links().front().id;
  EXPECT_EQ(ospf.epoch_at(0), 0u);
  EXPECT_EQ(ospf.epoch_at(1000000), 0u);
  ospf.set_weight(link, 100, 7);
  ospf.set_weight(link, 200, 9);
  EXPECT_EQ(ospf.epoch_at(99), 0u);
  EXPECT_EQ(ospf.epoch_at(100), 1u);
  EXPECT_EQ(ospf.epoch_at(199), 1u);
  EXPECT_EQ(ospf.epoch_at(200), 2u);
  EXPECT_EQ(ospf.epoch_at(5000), 2u);
  EXPECT_EQ(ospf.epoch_generation(), 0u);
}

TEST(RoutingEpochs, RepeatedOrOutOfOrderInstantBumpsGeneration) {
  Network net = topology::generate_isp(topology::TopoParams{});
  routing::OspfSim ospf(net);
  LogicalLinkId l0 = net.links()[0].id;
  LogicalLinkId l1 = net.links()[1].id;
  LogicalLinkId l2 = net.links()[2].id;
  ospf.set_weight(l0, 100, 7);
  EXPECT_EQ(ospf.epoch_generation(), 0u);
  // Same instant on another link: same epoch boundary, new routing state —
  // stamps minted before must stop matching.
  ospf.set_weight(l1, 100, 7);
  EXPECT_EQ(ospf.epoch_generation(), 1u);
  EXPECT_EQ(ospf.epoch_at(100), 1u);
  // Strictly earlier instant on a fresh link (legal per-link, globally out
  // of order): later epochs renumber.
  ospf.set_weight(l2, 50, 9);
  EXPECT_EQ(ospf.epoch_generation(), 2u);
  EXPECT_EQ(ospf.epoch_at(100), 2u);
}

TEST(RoutingEpochs, BgpEpochCountsEffectiveUpdatesOnly) {
  Network net = topology::generate_isp(topology::TopoParams{});
  routing::OspfSim ospf(net);
  routing::BgpSim bgp(ospf);
  routing::BgpRoute route;
  route.prefix = Ipv4Prefix::parse("203.0.113.0/24");
  route.egress = net.routers().front().id;
  EXPECT_EQ(bgp.epoch_at(1000), 0u);
  bgp.announce(route, 100);
  EXPECT_EQ(bgp.epoch_at(99), 0u);
  EXPECT_EQ(bgp.epoch_at(100), 1u);
  bgp.withdraw(route.prefix, route.egress, 200);
  EXPECT_EQ(bgp.epoch_at(200), 2u);
  // No-op withdraw (already inactive): no state change, no epoch.
  bgp.withdraw(route.prefix, route.egress, 300);
  EXPECT_EQ(bgp.epoch_at(300), 2u);
  EXPECT_EQ(bgp.epoch_generation(), 0u);
}

// ---- EventStore: interning + query_into ------------------------------------

TEST(EventStoreInterning, WarmInternsAndAddResetsForeignIds) {
  EventStore store;
  store.add(EventInstance{"e", {10, 20}, Location::router("r1"), {}});
  store.add(EventInstance{"e", {30, 40}, Location::router("r2"), {}});
  store.warm();
  for (const EventInstance& e : store.all("e")) {
    ASSERT_NE(e.where_id, kInvalidLocId);
    EXPECT_EQ(store.locations().at(e.where_id), e.where);
  }
  // An instance copied from another store carries that store's id; add()
  // must reset it so this store interns it itself.
  EventInstance foreign{"e", {50, 60}, Location::router("r9"), {}};
  foreign.where_id = 12345;
  EventStore other;
  other.add(foreign);
  other.warm();
  const EventInstance& stored = other.all("e").front();
  EXPECT_EQ(stored.where_id, other.locations().find(stored.where));
}

TEST(EventStoreQueryInto, MatchesQueryAndReusesBuffer) {
  EventStore store;
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    TimeSec t = rng.range(0, 100000);
    store.add(EventInstance{
        "e", {t, t + rng.range(1, 600)}, Location::router("r"), {}});
  }
  std::vector<const EventInstance*> scratch;
  for (int i = 0; i < 50; ++i) {
    TimeSec from = rng.range(0, 100000);
    TimeSec to = from + rng.range(0, 5000);
    auto expect = store.query("e", from, to);
    EXPECT_EQ(store.query_into("e", from, to, scratch), expect.size());
    EXPECT_EQ(scratch, expect);
  }
  EXPECT_EQ(store.query_into("absent", 0, 1, scratch), 0u);
  EXPECT_TRUE(scratch.empty());
}

// ---- Reroute invalidation (diamond topology) -------------------------------

/// a-(1)-b-(1)-d and a-(5)-c-(5)-d plus slow a-(50)-d: the unique shortest
/// a->d path is a-b-d until ab is reweighted, then a-c-d.
struct ReroutableDiamond {
  Network net;
  RouterId a, b, c, d;
  LogicalLinkId ab, ac, bd, cd, ad;

  ReroutableDiamond() {
    PopId p = net.add_pop("nyc", util::TimeZone::utc());
    auto mk = [&](const char* name, int n) {
      return net.add_router(name, p, RouterRole::kCore,
                            Ipv4Addr(0x0AFF0000u + n));
    };
    a = mk("a", 1);
    b = mk("b", 2);
    c = mk("c", 3);
    d = mk("d", 4);
    std::uint32_t subnet = 0x0A000000;
    auto connect = [&](RouterId x, RouterId y, int w) {
      auto cx = net.add_line_card(x, net.router(x).line_cards.size());
      auto cy = net.add_line_card(y, net.router(y).line_cards.size());
      auto ix =
          net.add_interface(x, cx, "so-" + std::to_string(subnet) + "/a",
                            InterfaceKind::kBackbone, Ipv4Addr(subnet + 1));
      auto iy =
          net.add_interface(y, cy, "so-" + std::to_string(subnet) + "/b",
                            InterfaceKind::kBackbone, Ipv4Addr(subnet + 2));
      auto l = net.add_logical_link(ix, iy, Ipv4Prefix(Ipv4Addr(subnet), 30),
                                    w, 10.0);
      subnet += 4;
      return l;
    };
    ab = connect(a, b, 1);
    ac = connect(a, c, 5);
    bd = connect(b, d, 1);
    cd = connect(c, d, 5);
    ad = connect(a, d, 50);
  }
};

DiagnosisGraph probe_graph() {
  DiagnosisGraph graph;
  load_dsl(R"(
event probe-loss {
  location router-pair
}
event link-down {
  location logical-link
}
rule probe-loss -> link-down {
  priority 100
  symptom start-start 60 60
  diagnostic start-end 5 5
  join logical-link
}
graph {
  root probe-loss
}
)",
           graph);
  return graph;
}

/// Stable text form of a diagnosis batch for byte-identity comparisons.
std::string render(const std::vector<Diagnosis>& batch) {
  std::ostringstream out;
  for (const Diagnosis& d : batch) {
    out << d.symptom.where.key() << '@' << d.symptom.when.start << " -> "
        << d.primary() << " causes=" << d.causes.size() << " evidence=[";
    for (const EvidenceNode& n : d.evidence) {
      out << n.event << ':';
      for (const EventInstance* inst : n.instances) {
        out << inst->where.key() << '@' << inst->when.start << '+';
      }
      out << ',';
    }
    out << "]\n";
  }
  return out.str();
}

TEST(JoinCacheReroute, MidWindowOspfRerouteInvalidatesStalePath) {
  ReroutableDiamond g;
  routing::OspfSim ospf(g.net);
  routing::BgpSim bgp(ospf);
  // Reroute between the two symptoms: a->d shifts from {ab, bd} to {ac, cd}.
  ospf.set_weight(g.ab, 2000, 100);
  LocationMapper mapper(g.net, ospf, bgp);

  EventStore store;
  const std::string ab_name = g.net.link(g.ab).name;
  const std::string ac_name = g.net.link(g.ac).name;
  store.add(EventInstance{
      "probe-loss", {1000, 1010}, Location::router_pair("a", "d"), {}});
  store.add(EventInstance{
      "probe-loss", {3000, 3010}, Location::router_pair("a", "d"), {}});
  // Near symptom 1: a failure on ab (on-path before the reroute).
  store.add(EventInstance{
      "link-down", {995, 1000}, Location::logical_link(ab_name), {}});
  // Near symptom 2: failures on ab (now OFF path — must not join) and ac.
  store.add(EventInstance{
      "link-down", {2995, 3000}, Location::logical_link(ab_name), {}});
  store.add(EventInstance{
      "link-down", {2990, 2996}, Location::logical_link(ac_name), {}});

  RcaEngine cached(probe_graph(), store, mapper);
  RcaEngine uncached(probe_graph(), store, mapper);
  uncached.set_join_cache_enabled(false);

  auto cached_batch = cached.diagnose_all(1);
  auto uncached_batch = uncached.diagnose_all(1);
  ASSERT_EQ(cached_batch.size(), 2u);
  EXPECT_EQ(render(cached_batch), render(uncached_batch));

  // Symptom 1 joins the ab failure; symptom 2 joins ONLY the ac failure —
  // a stale (pre-reroute) projection would wrongly include ab@2995.
  EXPECT_EQ(cached_batch[0].primary(), "link-down");
  ASSERT_EQ(cached_batch[1].causes.size(), 1u);
  ASSERT_EQ(cached_batch[1].causes[0].instances.size(), 1u);
  EXPECT_EQ(cached_batch[1].causes[0].instances[0]->where,
            Location::logical_link(ac_name));

  // The two symptoms really used different epoch stamps.
  JoinMemo memo(mapper, store.locations());
  EXPECT_NE(memo.stamp_at(1000), memo.stamp_at(3000));
  EXPECT_GT(cached.join_stats().hits + cached.join_stats().misses, 0u);
}

TEST(JoinCacheReroute, ProjectionsFlipAcrossTheEpochBoundary) {
  ReroutableDiamond g;
  routing::OspfSim ospf(g.net);
  routing::BgpSim bgp(ospf);
  ospf.set_weight(g.ab, 2000, 100);
  LocationMapper mapper(g.net, ospf, bgp);
  LocationTable table;
  JoinMemo cache(mapper, table);
  LocId pair = table.intern(Location::router_pair("a", "d"));
  LocId ab = table.intern(Location::logical_link(g.net.link(g.ab).name));
  LocId ac = table.intern(Location::logical_link(g.net.link(g.ac).name));
  EXPECT_TRUE(cache.joins(pair, ab, LocationType::kLogicalLink, 1000));
  EXPECT_FALSE(cache.joins(pair, ac, LocationType::kLogicalLink, 1000));
  EXPECT_FALSE(cache.joins(pair, ab, LocationType::kLogicalLink, 3000));
  EXPECT_TRUE(cache.joins(pair, ac, LocationType::kLogicalLink, 3000));
  // Within the lookback window of the change, both paths are in scope.
  EXPECT_TRUE(cache.joins(pair, ab, LocationType::kLogicalLink, 2030));
  EXPECT_TRUE(cache.joins(pair, ac, LocationType::kLogicalLink, 2030));
  // Repeating every query hits the memo and agrees with the mapper.
  EXPECT_TRUE(cache.joins(pair, ab, LocationType::kLogicalLink, 1000));
  EXPECT_EQ(cache.joins(pair, ab, LocationType::kLogicalLink, 3000),
            mapper.joins(Location::router_pair("a", "d"),
                         Location::logical_link(g.net.link(g.ab).name),
                         LocationType::kLogicalLink, 3000));
  EXPECT_GT(cache.stats().hits, 0u);
}

// ---- Cached vs uncached on a generated ISP ---------------------------------

struct IspScenario {
  Network net = topology::generate_isp(topology::TopoParams{});
  routing::OspfSim ospf{net};
  routing::BgpSim bgp{ospf};
  LocationMapper mapper{net, ospf, bgp};
  EventStore store;

  IspScenario() {
    routing::seed_customer_routes(bgp, net, 0);
    util::Rng rng(17);
    // Routing churn: a few weight changes spread over the scenario window.
    for (int i = 0; i < 6; ++i) {
      const topology::LogicalLink& l =
          net.links()[rng.below(net.links().size())];
      ospf.set_weight(l.id, 1000 + 1000 * i, 1 + static_cast<int>(rng.below(20)));
    }
    // Path-typed symptoms between PoPs, link failures as diagnostics.
    for (int i = 0; i < 120; ++i) {
      const topology::Pop& src = net.pops()[rng.below(net.pops().size())];
      const topology::Pop& dst = net.pops()[rng.below(net.pops().size())];
      if (src.id == dst.id) continue;
      TimeSec t = rng.range(100, 8000);
      store.add(EventInstance{"probe-loss",
                              {t, t + 10},
                              Location::pop_pair(src.name, dst.name),
                              {}});
    }
    for (int i = 0; i < 200; ++i) {
      const topology::LogicalLink& l =
          net.links()[rng.below(net.links().size())];
      TimeSec t = rng.range(100, 8000);
      store.add(EventInstance{
          "link-down", {t, t + 5}, Location::logical_link(l.name), {}});
    }
  }

  DiagnosisGraph graph() const { return probe_graph(); }
};

DiagnosisGraph pop_graph() {
  DiagnosisGraph graph;
  load_dsl(R"(
event probe-loss {
  location pop-pair
}
event link-down {
  location logical-link
}
rule probe-loss -> link-down {
  priority 100
  symptom start-start 120 120
  diagnostic start-end 30 30
  join logical-link
}
graph {
  root probe-loss
}
)",
           graph);
  return graph;
}

TEST(JoinCacheIdentity, CachedEqualsUncachedOnIspScenario) {
  IspScenario s;
  RcaEngine uncached(pop_graph(), s.store, s.mapper);
  uncached.set_join_cache_enabled(false);
  const std::string reference = render(uncached.diagnose_all(1));
  // One engine for every count: its worker memos outlive each call, so the
  // second call at a count runs on warm memos and later counts reuse the
  // memos earlier ones filled. Neither may decay results.
  RcaEngine cached(pop_graph(), s.store, s.mapper);
  for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    for (int call = 0; call < 2; ++call) {
      EXPECT_EQ(render(cached.diagnose_all(threads)), reference)
          << threads << " threads, call " << call;
    }
  }
  EXPECT_EQ(render(uncached.diagnose_all(4)), reference);
  auto stats = cached.join_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST(JoinCacheMetrics, RegistryCountersMirrorStats) {
  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(&registry);
  IspScenario s;
  RcaEngine engine(pop_graph(), s.store, s.mapper);
  const routing::OspfSim::SpfStats spf_before = s.mapper.ospf().spf_stats();
  engine.diagnose_all(1);
  engine.diagnose_all(4);
  engine.diagnose(s.store.all(engine.graph().root()).front());
  auto stats = engine.join_stats();
  EXPECT_GT(stats.misses, 0u);
  // Each diagnosis publishes its own memo's tallies, so after the calls the
  // counters hold the sum over every worker's memo.
  auto snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("grca_join_cache_hits"), stats.hits);
  EXPECT_EQ(snap.counters.at("grca_join_cache_misses"), stats.misses);
  // The SPF counters hold what the shared simulator's tallies grew by.
  const routing::OspfSim::SpfStats spf = s.mapper.ospf().spf_stats();
  EXPECT_GT(spf.lookups, spf_before.lookups);
  EXPECT_EQ(snap.counters.at("grca_spf_lookups_total"),
            spf.lookups - spf_before.lookups);
  EXPECT_EQ(snap.counters.at("grca_spf_runs_total"),
            spf.runs - spf_before.runs);
}

// ---- Concurrency hammer (the TSan gate) ------------------------------------

TEST(JoinCacheHammer, ConcurrentMixedQueriesMatchSerialReference) {
  IspScenario s;
  s.store.warm();
  // Shared by every thread, as in the engine's fan-out: the warmed store's
  // table (memos intern projection results into it) and the mapper (its
  // SPF memo). Each thread owns its memo.
  LocationTable& table = s.store.locations();

  struct Probe {
    LocId symptom;
    LocId diagnostic;
    LocationType level;
    TimeSec t;
    bool expect;
  };
  std::vector<Probe> probes;
  util::Rng rng(23);
  std::vector<Location> pool;
  for (int i = 0; i < 10; ++i) {
    const topology::Pop& x = s.net.pops()[rng.below(s.net.pops().size())];
    const topology::Pop& y = s.net.pops()[rng.below(s.net.pops().size())];
    if (x.id != y.id) pool.push_back(Location::pop_pair(x.name, y.name));
    const topology::Router& r = s.net.routers()[rng.below(s.net.routers().size())];
    pool.push_back(Location::router(r.name));
    const topology::LogicalLink& l = s.net.links()[rng.below(s.net.links().size())];
    pool.push_back(Location::logical_link(l.name));
  }
  const LocationType levels[] = {LocationType::kRouter,
                                 LocationType::kLogicalLink,
                                 LocationType::kRouterPath};
  for (int i = 0; i < 200; ++i) {
    const Location& a = pool[rng.below(pool.size())];
    const Location& b = pool[rng.below(pool.size())];
    LocationType level = levels[rng.below(3)];
    TimeSec t = rng.range(100, 8000);
    // Serial reference through the raw mapper (ground truth).
    probes.push_back(Probe{table.intern(a), table.intern(b), level, t,
                           s.mapper.joins(a, b, level, t)});
  }

  struct Outcome {
    int mismatches = 0;
    JoinMemo::Stats stats;
  };
  std::vector<Outcome> outcomes(8);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < outcomes.size(); ++w) {
    threads.emplace_back([&, w] {
      JoinMemo memo(s.mapper, table);
      Outcome& out = outcomes[w];
      // Each worker walks the probe list from its own offset, twice, so
      // every memo takes both the miss path and the hit path while the
      // others intern and route concurrently.
      for (int round = 0; round < 2; ++round) {
        for (std::size_t i = 0; i < probes.size(); ++i) {
          const Probe& p = probes[(i + w * 25) % probes.size()];
          if (memo.joins(p.symptom, p.diagnostic, p.level, p.t) != p.expect) {
            ++out.mismatches;
          }
          const std::vector<LocId>& proj =
              memo.project(p.symptom, p.level, p.t);
          if (!std::is_sorted(proj.begin(), proj.end())) ++out.mismatches;
        }
      }
      out.stats = memo.stats();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Outcome& out : outcomes) {
    EXPECT_EQ(out.mismatches, 0);
    EXPECT_GT(out.stats.hits, 0u);
    EXPECT_GT(out.stats.misses, 0u);
  }
}

}  // namespace
}  // namespace grca::core
