// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the spatial model: Location value semantics and every
// LocationMapper conversion utility of §II-B, including the time-varying
// (routing-dependent) projections.

#include <gtest/gtest.h>

#include <set>

#include "core/location.h"
#include "routing/bgp.h"
#include "routing/ospf.h"
#include "topology/topo_gen.h"

namespace grca::core {
namespace {

namespace t = topology;
using util::Ipv4Addr;
using util::Ipv4Prefix;

// ---- Location value type -------------------------------------------------

TEST(Location, KeyIsCanonical) {
  EXPECT_EQ(Location::router("r1").key(), "router|r1");
  EXPECT_EQ(Location::interface("r1", "ge-0/0/0").key(),
            "interface|r1|ge-0/0/0");
  EXPECT_EQ(Location::vpn_neighbor("r1", "10.0.0.1", "vpn-a").key(),
            "vpn-neighbor|r1|10.0.0.1|vpn-a");
}

TEST(Location, EqualityAndOrdering) {
  EXPECT_EQ(Location::router("r1"), Location::router("r1"));
  EXPECT_NE(Location::router("r1"), Location::router("r2"));
  EXPECT_NE(Location::router("r1"), Location::pop("r1"));
  EXPECT_LT(Location::router("a"), Location::router("b"));
}

TEST(Location, TypeNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(LocationType::kRouterPath); ++i) {
    auto type = static_cast<LocationType>(i);
    EXPECT_EQ(parse_location_type(to_string(type)), type);
  }
  EXPECT_THROW(parse_location_type("atlantis"), ParseError);
}

// ---- Mapper over a generated ISP -------------------------------------------

struct MapperFixture {
  t::Network net;
  routing::OspfSim ospf;
  routing::BgpSim bgp;
  LocationMapper mapper;

  MapperFixture()
      : net(t::generate_isp(t::TopoParams{})),
        ospf(net),
        bgp(ospf),
        mapper(net, ospf, bgp) {
    routing::seed_customer_routes(bgp, net, 0);
  }

  const t::CustomerSite& customer(std::size_t i) const {
    return net.customers()[i];
  }
  std::string per_name(const t::CustomerSite& c) const {
    return net.router(net.interface(c.attachment).router).name;
  }
};

TEST(Mapper, IdentityProjection) {
  MapperFixture f;
  Location loc = Location::router("nyc-cr1");
  auto out = f.mapper.project(loc, LocationType::kRouter, 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], loc);
}

TEST(Mapper, InterfaceToContainment) {
  MapperFixture f;
  const t::CustomerSite& c = f.customer(0);
  const t::Interface& port = f.net.interface(c.attachment);
  Location iface = Location::interface(f.per_name(c), port.name);
  auto routers = f.mapper.project(iface, LocationType::kRouter, 0);
  ASSERT_EQ(routers.size(), 1u);
  EXPECT_EQ(routers[0].a, f.per_name(c));
  auto cards = f.mapper.project(iface, LocationType::kLineCard, 0);
  ASSERT_EQ(cards.size(), 1u);
  auto pops = f.mapper.project(iface, LocationType::kPop, 0);
  ASSERT_EQ(pops.size(), 1u);
}

TEST(Mapper, SessionToAttachmentInterface) {
  // §II-B utility 2: Router:NeighborIP -> interface via the customer table.
  MapperFixture f;
  const t::CustomerSite& c = f.customer(3);
  Location session =
      Location::router_neighbor(f.per_name(c), c.neighbor_ip.to_string());
  auto ifaces = f.mapper.project(session, LocationType::kInterface, 0);
  ASSERT_EQ(ifaces.size(), 1u);
  EXPECT_EQ(ifaces[0].b, f.net.interface(c.attachment).name);
}

TEST(Mapper, SessionWithUnknownNeighborStillMapsRouter) {
  MapperFixture f;
  Location session = Location::router_neighbor("nyc-cr1", "198.51.100.9");
  EXPECT_TRUE(f.mapper.project(session, LocationType::kInterface, 0).empty());
  EXPECT_EQ(f.mapper.project(session, LocationType::kRouter, 0).size(), 1u);
}

TEST(Mapper, AccessCircuitToLayer1) {
  // Utilities 5-7: customer port -> access circuit -> layer-1 devices.
  MapperFixture f;
  const t::PhysicalLink* tail = nullptr;
  for (const t::PhysicalLink& pl : f.net.physical_links()) {
    if (pl.access_port.valid()) {
      tail = &pl;
      break;
    }
  }
  ASSERT_NE(tail, nullptr);
  const t::Interface& port = f.net.interface(tail->access_port);
  Location iface =
      Location::interface(f.net.router(port.router).name, port.name);
  auto circuits = f.mapper.project(iface, LocationType::kPhysicalLink, 0);
  ASSERT_FALSE(circuits.empty());
  EXPECT_EQ(circuits[0].a, tail->circuit_id);
  auto devices = f.mapper.project(iface, LocationType::kLayer1Device, 0);
  ASSERT_FALSE(devices.empty());
  EXPECT_EQ(devices[0].a, f.net.layer1_device(tail->path[0]).name);
}

TEST(Mapper, Layer1DeviceReverseMapping) {
  MapperFixture f;
  Location dev = Location::layer1(f.net.layer1_devices()[0].name);
  auto circuits = f.mapper.project(dev, LocationType::kPhysicalLink, 0);
  EXPECT_FALSE(circuits.empty());
  auto ifaces = f.mapper.project(dev, LocationType::kInterface, 0);
  EXPECT_FALSE(ifaces.empty());
}

TEST(Mapper, RouterPairFollowsOspfPath) {
  // Utility 3: the projection tracks routing as weights change.
  MapperFixture f;
  t::RouterId a = *f.net.find_router("nyc-cr1");
  t::RouterId b = *f.net.find_router("dal-cr1");
  Location pair = Location::router_pair("nyc-cr1", "dal-cr1");
  auto before = f.mapper.project(pair, LocationType::kLogicalLink, 1000);
  ASSERT_FALSE(before.empty());
  // Take down every link on the current path; the projection at a later
  // time must differ (and, within the lookback, still include the old path).
  auto links = f.ospf.links_on_paths(a, b, 1000);
  for (auto l : links) f.ospf.set_weight(l, 5000, routing::kDown);
  auto after = f.mapper.project(pair, LocationType::kLogicalLink, 10000);
  EXPECT_NE(before, after);
  // Within the lookback window the old links still project (so diagnostics
  // that caused the change still join).
  auto during = f.mapper.project(pair, LocationType::kLogicalLink, 5030);
  std::set<std::string> during_keys;
  for (const Location& l : during) during_keys.insert(l.key());
  for (const Location& l : before) {
    EXPECT_TRUE(during_keys.count(l.key())) << l.key();
  }
}

TEST(Mapper, IngressDestinationUsesBgp) {
  // Utility 1: ingress:destination resolves the egress via LPM + decision
  // process, then projects the OSPF path.
  MapperFixture f;
  const t::CustomerSite& c = f.customer(10);
  t::RouterId egress = f.net.interface(c.attachment).router;
  Location loc = Location::ingress_destination(
      "nyc-cr1", Ipv4Addr(c.announced.address().value() + 7).to_string());
  auto pair = f.mapper.project(loc, LocationType::kRouterPair, 100);
  ASSERT_EQ(pair.size(), 1u);
  EXPECT_EQ(pair[0].b, f.net.router(egress).name);
  auto routers = f.mapper.project(loc, LocationType::kRouter, 100);
  EXPECT_GE(routers.size(), 2u);  // at least ingress and egress
}

TEST(Mapper, UnknownDestinationProjectsNothing) {
  MapperFixture f;
  Location loc = Location::ingress_destination("nyc-cr1", "203.0.113.250");
  EXPECT_TRUE(f.mapper.project(loc, LocationType::kRouter, 100).empty());
}

TEST(Mapper, VpnNeighborRouterLevelIsEndpoints) {
  MapperFixture f;
  auto sites = f.net.mvpn_sites("mvpn-1");
  ASSERT_GE(sites.size(), 2u);
  t::RouterId pe_a = f.net.interface(f.net.customer(sites[0]).attachment).router;
  t::RouterId pe_b = f.net.interface(f.net.customer(sites[1]).attachment).router;
  if (pe_a == pe_b) GTEST_SKIP() << "sites landed on the same PE";
  Location adj = Location::vpn_neighbor(
      f.net.router(pe_a).name, f.net.router(pe_b).loopback.to_string(),
      "mvpn-1");
  auto routers = f.mapper.project(adj, LocationType::kRouter, 0);
  std::set<std::string> names;
  for (const Location& r : routers) names.insert(r.a);
  EXPECT_EQ(names, (std::set<std::string>{f.net.router(pe_a).name,
                                          f.net.router(pe_b).name}));
  // Router-path level includes the interior of the PE-PE path.
  auto path = f.mapper.project(adj, LocationType::kRouterPath, 0);
  EXPECT_GT(path.size(), names.size());
}

TEST(Mapper, PopPairProjectsBackbonePath) {
  MapperFixture f;
  Location pair = Location::pop_pair(f.net.pops()[0].name,
                                     f.net.pops()[3].name);
  auto routers = f.mapper.project(pair, LocationType::kRouter, 0);
  EXPECT_GE(routers.size(), 2u);
  auto links = f.mapper.project(pair, LocationType::kLogicalLink, 0);
  EXPECT_FALSE(links.empty());
}

TEST(Mapper, JoinsRequiresSharedProjection) {
  MapperFixture f;
  const t::CustomerSite& c = f.customer(0);
  Location session =
      Location::router_neighbor(f.per_name(c), c.neighbor_ip.to_string());
  Location right_port = Location::interface(
      f.per_name(c), f.net.interface(c.attachment).name);
  Location wrong_port = Location::interface(f.per_name(c), "so-0/0/0");
  EXPECT_TRUE(f.mapper.joins(session, right_port,
                             LocationType::kInterface, 0));
  EXPECT_FALSE(f.mapper.joins(session, wrong_port,
                              LocationType::kInterface, 0));
  // At router level both ports join (same chassis).
  EXPECT_TRUE(f.mapper.joins(session, wrong_port, LocationType::kRouter, 0));
}

TEST(Mapper, CdnClientProjections) {
  MapperFixture f;
  const t::CdnNode& node = f.net.cdn_nodes().front();
  const t::CustomerSite& c = f.customer(20);
  Location loc = Location::cdn_client(
      node.name, Ipv4Addr(c.announced.address().value() + 2).to_string());
  auto nodes = f.mapper.project(loc, LocationType::kCdnNode, 0);
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0].a, node.name);
  auto links = f.mapper.project(loc, LocationType::kLogicalLink, 100);
  // Ingress and egress differ almost surely at this scale.
  EXPECT_FALSE(links.empty());
}

TEST(Mapper, CdnNodeToIngressRouters) {
  MapperFixture f;
  const t::CdnNode& node = f.net.cdn_nodes().front();
  Location loc = Location::cdn_node(node.name);
  auto routers = f.mapper.project(loc, LocationType::kRouter, 0);
  EXPECT_EQ(routers.size(), node.ingress_routers.size());
}

TEST(Mapper, RouterPathDegradesToRouterForElements) {
  MapperFixture f;
  Location iface = Location::interface("nyc-cr1", "so-0/0/0");
  auto out = f.mapper.project(iface, LocationType::kRouterPath, 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Location::router("nyc-cr1"));
}

TEST(Mapper, LineCardSlotParsesInFull) {
  MapperFixture f;
  const t::Router& router = f.net.routers()[0];
  ASSERT_FALSE(router.line_cards.empty());
  const t::LineCard& card = f.net.line_card(router.line_cards[0]);
  const std::string slot = std::to_string(card.slot);
  auto project = [&](const std::string& slot_text) {
    Location loc = Location::line_card(router.name, card.slot);
    loc.b = slot_text;
    return f.mapper.project(loc, LocationType::kRouter, 0);
  };
  ASSERT_EQ(project(slot).size(), 1u);
  EXPECT_EQ(project(slot)[0], Location::router(router.name));
  // Not wholly a number: nothing, as for an unknown router.
  for (const std::string& bad : {slot + "x", std::string("x"),
                                 std::string(""), " " + slot}) {
    EXPECT_TRUE(project(bad).empty()) << "slot '" << bad << "'";
  }
}

TEST(Mapper, UnknownNamesProjectEmpty) {
  MapperFixture f;
  EXPECT_TRUE(f.mapper
                  .project(Location::router("atlantis-cr9"),
                           LocationType::kInterface, 0)
                  .empty());
  EXPECT_TRUE(f.mapper
                  .project(Location::logical_link("no-such-link"),
                           LocationType::kRouter, 0)
                  .empty());
  EXPECT_TRUE(f.mapper
                  .project(Location::physical_link("CKT.NOPE"),
                           LocationType::kLayer1Device, 0)
                  .empty());
}

}  // namespace
}  // namespace grca::core
