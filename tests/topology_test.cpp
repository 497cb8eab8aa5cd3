// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Unit tests for the topology substrate: Network builder invariants, the
// synthetic ISP generator, and the router-config render/parse round trip.

#include <gtest/gtest.h>

#include <set>

#include "topology/config.h"
#include "topology/network.h"
#include "topology/topo_gen.h"

namespace grca::topology {
namespace {

using util::Ipv4Addr;
using util::Ipv4Prefix;

/// Builds a minimal two-router network with one link and one customer.
Network tiny_network() {
  Network net;
  PopId nyc = net.add_pop("nyc", util::TimeZone::us_eastern());
  RouterId per = net.add_router("nyc-per1", nyc, RouterRole::kProviderEdge,
                                Ipv4Addr::parse("10.255.0.1"));
  RouterId cr = net.add_router("nyc-cr1", nyc, RouterRole::kCore,
                               Ipv4Addr::parse("10.255.0.2"));
  RouterId rr = net.add_router("nyc-rr1", nyc, RouterRole::kRouteReflector,
                               Ipv4Addr::parse("10.255.0.3"));
  net.set_reflectors(per, {rr});
  LineCardId pc0 = net.add_line_card(per, 0);
  LineCardId cc0 = net.add_line_card(cr, 0);
  LineCardId rc0 = net.add_line_card(rr, 0);
  InterfaceId pi = net.add_interface(per, pc0, "so-0/0/0",
                                     InterfaceKind::kBackbone,
                                     Ipv4Addr::parse("10.0.0.1"));
  InterfaceId ci = net.add_interface(cr, cc0, "so-0/0/0",
                                     InterfaceKind::kBackbone,
                                     Ipv4Addr::parse("10.0.0.2"));
  InterfaceId ri = net.add_interface(rr, rc0, "so-0/0/0",
                                     InterfaceKind::kBackbone,
                                     Ipv4Addr::parse("10.0.0.5"));
  InterfaceId ci2 = net.add_interface(cr, cc0, "so-0/0/1",
                                      InterfaceKind::kBackbone,
                                      Ipv4Addr::parse("10.0.0.6"));
  net.add_logical_link(pi, ci, Ipv4Prefix::parse("10.0.0.0/30"), 10, 10.0);
  net.add_logical_link(ri, ci2, Ipv4Prefix::parse("10.0.0.4/30"), 10, 10.0);
  InterfaceId cust_if = net.add_interface(per, pc0, "ge-0/0/1",
                                          InterfaceKind::kCustomerFacing,
                                          Ipv4Addr::parse("172.16.0.1"));
  net.add_customer_site("cust-00001", cust_if, Ipv4Addr::parse("172.16.0.2"),
                        65001, Ipv4Prefix::parse("96.0.0.0/24"), "mvpn-1");
  Layer1DeviceId adm = net.add_layer1_device("nyc-adm1",
                                             Layer1Kind::kSonetRing, nyc);
  net.add_physical_link("CKT.NYC.NYC.00001", LogicalLinkId(0),
                        Layer1Kind::kSonetRing, {adm});
  return net;
}

// ---- Builder invariants ---------------------------------------------------

TEST(NetworkBuilder, DuplicateRouterNameRejected) {
  Network net;
  PopId p = net.add_pop("nyc", util::TimeZone::utc());
  net.add_router("r1", p, RouterRole::kCore, Ipv4Addr::parse("10.255.0.1"));
  EXPECT_THROW(net.add_router("r1", p, RouterRole::kCore,
                              Ipv4Addr::parse("10.255.0.2")),
               ConfigError);
}

TEST(NetworkBuilder, DuplicatePopRejected) {
  Network net;
  net.add_pop("nyc", util::TimeZone::utc());
  EXPECT_THROW(net.add_pop("nyc", util::TimeZone::utc()), ConfigError);
}

TEST(NetworkBuilder, LinkRequiresBackboneInterfaces) {
  Network net = tiny_network();
  RouterId per = *net.find_router("nyc-per1");
  InterfaceId cust = *net.find_interface(per, "ge-0/0/1");
  InterfaceId bb = *net.find_interface(per, "so-0/0/0");
  EXPECT_THROW(net.add_logical_link(cust, bb, Ipv4Prefix::parse("10.0.1.0/30"),
                                    10, 10.0),
               ConfigError);
}

TEST(NetworkBuilder, LinkRejectsDoubleAttach) {
  Network net = tiny_network();
  RouterId per = *net.find_router("nyc-per1");
  RouterId cr = *net.find_router("nyc-cr1");
  InterfaceId a = *net.find_interface(per, "so-0/0/0");
  InterfaceId b = *net.find_interface(cr, "so-0/0/0");
  EXPECT_THROW(
      net.add_logical_link(a, b, Ipv4Prefix::parse("10.0.0.0/30"), 10, 10.0),
      ConfigError);
}

TEST(NetworkBuilder, SelfLoopRejected) {
  Network net;
  PopId p = net.add_pop("nyc", util::TimeZone::utc());
  RouterId r = net.add_router("r1", p, RouterRole::kCore,
                              Ipv4Addr::parse("10.255.0.1"));
  LineCardId c = net.add_line_card(r, 0);
  InterfaceId i1 = net.add_interface(r, c, "so-0/0/0", InterfaceKind::kBackbone,
                                     Ipv4Addr::parse("10.0.0.1"));
  InterfaceId i2 = net.add_interface(r, c, "so-0/0/1", InterfaceKind::kBackbone,
                                     Ipv4Addr::parse("10.0.0.2"));
  EXPECT_THROW(
      net.add_logical_link(i1, i2, Ipv4Prefix::parse("10.0.0.0/30"), 10, 1.0),
      ConfigError);
}

TEST(NetworkBuilder, LineCardOwnership) {
  Network net;
  PopId p = net.add_pop("nyc", util::TimeZone::utc());
  RouterId r1 = net.add_router("r1", p, RouterRole::kCore,
                               Ipv4Addr::parse("10.255.0.1"));
  RouterId r2 = net.add_router("r2", p, RouterRole::kCore,
                               Ipv4Addr::parse("10.255.0.2"));
  LineCardId c1 = net.add_line_card(r1, 0);
  EXPECT_THROW(net.add_interface(r2, c1, "so-0/0/0", InterfaceKind::kBackbone,
                                 Ipv4Addr::parse("10.0.0.1")),
               ConfigError);
}

TEST(NetworkBuilder, CustomerNeedsCustomerFacingPort) {
  Network net = tiny_network();
  RouterId per = *net.find_router("nyc-per1");
  InterfaceId bb = *net.find_interface(per, "so-0/0/0");
  EXPECT_THROW(net.add_customer_site("c2", bb, Ipv4Addr::parse("172.16.0.6"),
                                     65002, Ipv4Prefix::parse("96.0.1.0/24")),
               ConfigError);
}

TEST(NetworkBuilder, ReflectorsMustBeReflectors) {
  Network net = tiny_network();
  RouterId per = *net.find_router("nyc-per1");
  RouterId cr = *net.find_router("nyc-cr1");
  EXPECT_THROW(net.set_reflectors(per, {cr}), ConfigError);
}

// ---- Lookups ---------------------------------------------------------------

TEST(NetworkLookup, FindByNameAndAddress) {
  Network net = tiny_network();
  ASSERT_TRUE(net.find_router("nyc-per1").has_value());
  EXPECT_FALSE(net.find_router("nyc-per9").has_value());
  auto ifc = net.find_interface_by_address(Ipv4Addr::parse("10.0.0.2"));
  ASSERT_TRUE(ifc.has_value());
  EXPECT_EQ(net.interface(*ifc).name, "so-0/0/0");
  EXPECT_EQ(net.router(net.interface(*ifc).router).name, "nyc-cr1");
}

TEST(NetworkLookup, LinkBetween) {
  Network net = tiny_network();
  RouterId per = *net.find_router("nyc-per1");
  RouterId cr = *net.find_router("nyc-cr1");
  RouterId rr = *net.find_router("nyc-rr1");
  EXPECT_TRUE(net.find_link_between(per, cr).has_value());
  EXPECT_FALSE(net.find_link_between(per, rr).has_value());
}

TEST(NetworkLookup, LinkPeer) {
  Network net = tiny_network();
  RouterId per = *net.find_router("nyc-per1");
  RouterId cr = *net.find_router("nyc-cr1");
  LogicalLinkId l = *net.find_link_between(per, cr);
  EXPECT_EQ(net.link_peer(l, per), cr);
  EXPECT_EQ(net.link_peer(l, cr), per);
  RouterId rr = *net.find_router("nyc-rr1");
  EXPECT_THROW(net.link_peer(l, rr), LookupError);
}

TEST(NetworkLookup, CustomerByNeighbor) {
  Network net = tiny_network();
  auto c = net.find_customer_by_neighbor(Ipv4Addr::parse("172.16.0.2"));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(net.customer(*c).name, "cust-00001");
}

TEST(NetworkLookup, CircuitLookup) {
  Network net = tiny_network();
  auto p = net.find_circuit("CKT.NYC.NYC.00001");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(net.physical_link(*p).logical, LogicalLinkId(0));
  EXPECT_FALSE(net.find_circuit("CKT.MISSING").has_value());
}

TEST(NetworkLookup, MvpnSites) {
  Network net = tiny_network();
  EXPECT_EQ(net.mvpn_sites("mvpn-1").size(), 1u);
  EXPECT_TRUE(net.mvpn_sites("mvpn-9").empty());
}

TEST(NetworkLookup, InvalidIdThrows) {
  Network net = tiny_network();
  EXPECT_THROW(net.router(RouterId(999)), LookupError);
  EXPECT_THROW(net.link(LogicalLinkId(999)), LookupError);
}

// ---- Generator --------------------------------------------------------------

TEST(TopoGen, GeneratesValidNetwork) {
  TopoParams p;  // defaults: 8 pops
  Network net = generate_isp(p);
  EXPECT_EQ(static_cast<int>(net.pops().size()), p.pops);
  // pops * (core + access + per) + 2 reflectors
  int expected_routers =
      p.pops * (p.core_per_pop + p.access_per_pop + p.pers_per_pop) + 2;
  EXPECT_EQ(static_cast<int>(net.routers().size()), expected_routers);
  EXPECT_EQ(static_cast<int>(net.customers().size()),
            p.total_pers() * p.customers_per_per);
  net.validate();  // must not throw
}

TEST(TopoGen, Deterministic) {
  TopoParams p;
  Network a = generate_isp(p);
  Network b = generate_isp(p);
  ASSERT_EQ(a.routers().size(), b.routers().size());
  ASSERT_EQ(a.links().size(), b.links().size());
  for (std::size_t i = 0; i < a.links().size(); ++i) {
    EXPECT_EQ(a.links()[i].name, b.links()[i].name);
    EXPECT_EQ(a.links()[i].ospf_weight, b.links()[i].ospf_weight);
  }
}

TEST(TopoGen, EveryPerDualHomedWithReflectors) {
  Network net = generate_isp(TopoParams{});
  for (const Router& r : net.routers()) {
    if (r.role != RouterRole::kProviderEdge) continue;
    EXPECT_EQ(net.links_of_router(r.id).size(), 2u) << r.name;
    EXPECT_EQ(r.reflectors.size(), 2u) << r.name;
  }
}

TEST(TopoGen, BackboneIsConnected) {
  Network net = generate_isp(TopoParams{});
  // BFS over logical links from router 0 must reach every router.
  std::vector<bool> seen(net.routers().size(), false);
  std::vector<RouterId> queue = {net.routers()[0].id};
  seen[0] = true;
  std::size_t count = 1;
  while (!queue.empty()) {
    RouterId r = queue.back();
    queue.pop_back();
    for (LogicalLinkId l : net.links_of_router(r)) {
      RouterId peer = net.link_peer(l, r);
      if (!seen[peer.value()]) {
        seen[peer.value()] = true;
        ++count;
        queue.push_back(peer);
      }
    }
  }
  EXPECT_EQ(count, net.routers().size());
}

TEST(TopoGen, MvpnSitesSpanMultiplePers) {
  TopoParams p;
  Network net = generate_isp(p);
  for (int v = 1; v <= p.mvpn_count; ++v) {
    auto sites = net.mvpn_sites("mvpn-" + std::to_string(v));
    EXPECT_EQ(static_cast<int>(sites.size()), p.mvpn_sites_per_vpn);
    std::set<std::uint32_t> pers;
    for (CustomerSiteId s : sites) {
      pers.insert(net.interface(net.customer(s).attachment).router.value());
    }
    EXPECT_GT(pers.size(), 1u) << "mvpn-" << v << " should span several PERs";
  }
}

TEST(TopoGen, PaperScaleHas600PlusPers) {
  TopoParams p = paper_scale_params();
  EXPECT_GE(p.total_pers(), 600);
}

TEST(TopoGen, CircuitsHaveLayer1Paths) {
  Network net = generate_isp(TopoParams{});
  EXPECT_FALSE(net.physical_links().empty());
  for (const PhysicalLink& pl : net.physical_links()) {
    EXPECT_FALSE(pl.path.empty()) << pl.circuit_id;
    for (Layer1DeviceId d : pl.path) {
      EXPECT_EQ(net.layer1_device(d).kind, pl.kind);
    }
  }
}

TEST(TopoGen, RejectsDegenerateParams) {
  TopoParams p;
  p.pops = 1;
  EXPECT_THROW(generate_isp(p), ConfigError);
}

// ---- Config round trip -------------------------------------------------------

TEST(Config, RenderContainsKeySections) {
  Network net = tiny_network();
  std::string cfg = render_config(net, *net.find_router("nyc-per1"));
  EXPECT_NE(cfg.find("hostname nyc-per1"), std::string::npos);
  EXPECT_NE(cfg.find("role per"), std::string::npos);
  EXPECT_NE(cfg.find("reflector nyc-rr1"), std::string::npos);
  EXPECT_NE(cfg.find("interface so-0/0/0"), std::string::npos);
  EXPECT_NE(cfg.find("link-peer nyc-cr1 so-0/0/0"), std::string::npos);
  EXPECT_NE(cfg.find("customer cust-00001"), std::string::npos);
  EXPECT_NE(cfg.find("mvpn mvpn-1"), std::string::npos);
}

TEST(Config, RoundTripPreservesStructure) {
  Network net = generate_isp(TopoParams{});
  Network rebuilt = build_network_from_configs(render_all_configs(net),
                                               render_layer1_inventory(net));
  EXPECT_EQ(rebuilt.routers().size(), net.routers().size());
  EXPECT_EQ(rebuilt.interfaces().size(), net.interfaces().size());
  EXPECT_EQ(rebuilt.links().size(), net.links().size());
  EXPECT_EQ(rebuilt.physical_links().size(), net.physical_links().size());
  EXPECT_EQ(rebuilt.customers().size(), net.customers().size());
  EXPECT_EQ(rebuilt.layer1_devices().size(), net.layer1_devices().size());
  EXPECT_EQ(rebuilt.cdn_nodes().size(), net.cdn_nodes().size());
  // Spot-check semantic equivalence on every router: same links to the same
  // peers with the same weights.
  for (const Router& r : net.routers()) {
    auto rid = rebuilt.find_router(r.name);
    ASSERT_TRUE(rid.has_value()) << r.name;
    auto orig_links = net.links_of_router(r.id);
    auto new_links = rebuilt.links_of_router(*rid);
    ASSERT_EQ(orig_links.size(), new_links.size()) << r.name;
    std::multiset<std::pair<std::string, int>> orig_peers, new_peers;
    for (LogicalLinkId l : orig_links) {
      orig_peers.emplace(net.router(net.link_peer(l, r.id)).name,
                         net.link(l).ospf_weight);
    }
    for (LogicalLinkId l : new_links) {
      new_peers.emplace(rebuilt.router(rebuilt.link_peer(l, *rid)).name,
                        rebuilt.link(l).ospf_weight);
    }
    EXPECT_EQ(orig_peers, new_peers) << r.name;
  }
}

TEST(Config, RoundTripPreservesCustomers) {
  Network net = generate_isp(TopoParams{});
  Network rebuilt = build_network_from_configs(render_all_configs(net),
                                               render_layer1_inventory(net));
  for (const CustomerSite& c : net.customers()) {
    auto found = rebuilt.find_customer_by_neighbor(c.neighbor_ip);
    ASSERT_TRUE(found.has_value()) << c.name;
    const CustomerSite& rc = rebuilt.customer(*found);
    EXPECT_EQ(rc.name, c.name);
    EXPECT_EQ(rc.asn, c.asn);
    EXPECT_EQ(rc.announced, c.announced);
    EXPECT_EQ(rc.mvpn, c.mvpn);
  }
}

TEST(Config, ParserRejectsGarbage) {
  EXPECT_THROW(build_network_from_configs({"hostname r1\nbogus line\n"}, ""),
               ParseError);
  EXPECT_THROW(build_network_from_configs({"pop nyc\n"}, ""), ParseError);
}

TEST(Config, MalformedNumberNamesSourceAndLine) {
  const std::string cfg = "hostname r1\npop nyc\ninterface ge-0/0/0\n card x\n";
  try {
    build_network_from_configs({cfg}, "", {"r1.cfg"});
    ADD_FAILURE() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "r1.cfg:4: bad card slot 'x'");
  }
  try {
    build_network_from_configs({"hostname r1\ntimezone UTC 5h\n"}, "");
    ADD_FAILURE() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "config 1:2: bad timezone offset '5h'");
  }
}

TEST(Config, InventoryMalformedNumberNamesLine) {
  try {
    build_network_from_configs(
        {}, "\ncdn-node n1 nyc servers q ingress r1\n");
    ADD_FAILURE() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "inventory:2: bad server count 'q'");
  }
}

TEST(Config, ParserRejectsDanglingLinkPeer) {
  Network net = tiny_network();
  std::string cfg = render_config(net, *net.find_router("nyc-per1"));
  // Only supply one side of the link: reconstruction must fail loudly.
  EXPECT_THROW(build_network_from_configs({cfg}, render_layer1_inventory(net)),
               ConfigError);
}

TEST(Config, InventoryRejectsUnknownCircuitKind) {
  EXPECT_THROW(
      build_network_from_configs({}, "circuit CKT.X foo path dev1\n"),
      ParseError);
}

}  // namespace
}  // namespace grca::topology
