// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "topology/network.h"

#include <algorithm>

namespace grca::topology {

std::string_view to_string(RouterRole role) noexcept {
  switch (role) {
    case RouterRole::kCore: return "core";
    case RouterRole::kAccess: return "access";
    case RouterRole::kProviderEdge: return "per";
    case RouterRole::kRouteReflector: return "reflector";
  }
  return "?";
}

std::string_view to_string(InterfaceKind kind) noexcept {
  switch (kind) {
    case InterfaceKind::kBackbone: return "backbone";
    case InterfaceKind::kCustomerFacing: return "customer";
    case InterfaceKind::kPeering: return "peering";
    case InterfaceKind::kLoopback: return "loopback";
  }
  return "?";
}

std::string_view to_string(Layer1Kind kind) noexcept {
  switch (kind) {
    case Layer1Kind::kSonetRing: return "sonet";
    case Layer1Kind::kOpticalMesh: return "optical-mesh";
  }
  return "?";
}

PopId Network::add_pop(std::string name, util::TimeZone tz) {
  if (pop_by_name_.count(name)) {
    throw ConfigError("Network: duplicate pop '" + name + "'");
  }
  PopId id(static_cast<std::uint32_t>(pops_.size()));
  pop_by_name_.emplace(name, id);
  pops_.push_back(Pop{id, std::move(name), std::move(tz)});
  return id;
}

RouterId Network::add_router(std::string name, PopId pop, RouterRole role,
                             util::Ipv4Addr loopback) {
  (void)this->pop(pop);  // validates pop id
  if (router_by_name_.count(name)) {
    throw ConfigError("Network: duplicate router '" + name + "'");
  }
  RouterId id(static_cast<std::uint32_t>(routers_.size()));
  router_by_name_.emplace(name, id);
  router_by_loopback_.emplace(loopback, id);
  Router r;
  r.id = id;
  r.name = std::move(name);
  r.pop = pop;
  r.role = role;
  r.loopback = loopback;
  routers_.push_back(std::move(r));
  interface_by_addr_.emplace(loopback, InterfaceId());  // reserve loopback IP
  return id;
}

LineCardId Network::add_line_card(RouterId router_id, int slot) {
  (void)router(router_id);
  LineCardId id(static_cast<std::uint32_t>(line_cards_.size()));
  line_cards_.push_back(LineCard{id, router_id, slot, {}});
  routers_[router_id.value()].line_cards.push_back(id);
  return id;
}

InterfaceId Network::add_interface(RouterId router_id, LineCardId card,
                                   std::string name, InterfaceKind kind,
                                   util::Ipv4Addr address) {
  (void)router(router_id);
  if (line_card(card).router != router_id) {
    throw ConfigError("Network: line card belongs to a different router");
  }
  if (find_interface(router_id, name)) {
    throw ConfigError("Network: duplicate interface '" + name + "' on " +
                      router(router_id).name);
  }
  InterfaceId id(static_cast<std::uint32_t>(interfaces_.size()));
  Interface ifc;
  ifc.id = id;
  ifc.router = router_id;
  ifc.line_card = card;
  ifc.name = std::move(name);
  ifc.kind = kind;
  ifc.address = address;
  interfaces_.push_back(std::move(ifc));
  routers_[router_id.value()].interfaces.push_back(id);
  line_cards_[card.value()].interfaces.push_back(id);
  if (address.value() != 0) interface_by_addr_[address] = id;
  return id;
}

LogicalLinkId Network::add_logical_link(InterfaceId a, InterfaceId b,
                                        util::Ipv4Prefix subnet,
                                        int ospf_weight, double capacity_gbps) {
  const Interface& ia = interface(a);
  const Interface& ib = interface(b);
  if (ia.kind != InterfaceKind::kBackbone || ib.kind != InterfaceKind::kBackbone) {
    throw ConfigError("Network: logical links connect backbone interfaces");
  }
  if (ia.link.valid() || ib.link.valid()) {
    throw ConfigError("Network: interface already attached to a link");
  }
  if (ia.router == ib.router) {
    throw ConfigError("Network: self-loop link on " + router(ia.router).name);
  }
  if (ospf_weight <= 0) throw ConfigError("Network: ospf weight must be > 0");
  LogicalLinkId id(static_cast<std::uint32_t>(links_.size()));
  LogicalLink link;
  link.id = id;
  link.name = router(ia.router).name + ":" + ia.name + "--" +
              router(ib.router).name + ":" + ib.name;
  link.side_a = a;
  link.side_b = b;
  link.subnet = subnet;
  link.ospf_weight = ospf_weight;
  link.capacity_gbps = capacity_gbps;
  links_.push_back(std::move(link));
  interfaces_[a.value()].link = id;
  interfaces_[b.value()].link = id;
  return id;
}

Layer1DeviceId Network::add_layer1_device(std::string name, Layer1Kind kind,
                                          PopId pop_id) {
  (void)pop(pop_id);
  Layer1DeviceId id(static_cast<std::uint32_t>(layer1_devices_.size()));
  layer1_devices_.push_back(Layer1Device{id, std::move(name), kind, pop_id});
  return id;
}

PhysicalLinkId Network::add_physical_link(std::string circuit_id,
                                          LogicalLinkId link_id,
                                          Layer1Kind kind,
                                          std::vector<Layer1DeviceId> path) {
  (void)link(link_id);
  for (Layer1DeviceId d : path) (void)layer1_device(d);
  if (circuit_by_id_.count(circuit_id)) {
    throw ConfigError("Network: duplicate circuit '" + circuit_id + "'");
  }
  PhysicalLinkId id(static_cast<std::uint32_t>(physical_links_.size()));
  circuit_by_id_.emplace(circuit_id, id);
  PhysicalLink pl;
  pl.id = id;
  pl.circuit_id = std::move(circuit_id);
  pl.logical = link_id;
  pl.kind = kind;
  pl.path = std::move(path);
  physical_links_.push_back(std::move(pl));
  links_[link_id.value()].physical.push_back(id);
  return id;
}

PhysicalLinkId Network::add_access_circuit(std::string circuit_id,
                                           InterfaceId port, Layer1Kind kind,
                                           std::vector<Layer1DeviceId> path) {
  const Interface& ifc = interface(port);
  if (ifc.kind != InterfaceKind::kCustomerFacing &&
      ifc.kind != InterfaceKind::kPeering) {
    throw ConfigError("Network: access circuits feed customer/peering ports");
  }
  for (Layer1DeviceId d : path) (void)layer1_device(d);
  if (circuit_by_id_.count(circuit_id)) {
    throw ConfigError("Network: duplicate circuit '" + circuit_id + "'");
  }
  PhysicalLinkId id(static_cast<std::uint32_t>(physical_links_.size()));
  circuit_by_id_.emplace(circuit_id, id);
  PhysicalLink pl;
  pl.id = id;
  pl.circuit_id = std::move(circuit_id);
  pl.access_port = port;
  pl.kind = kind;
  pl.path = std::move(path);
  physical_links_.push_back(std::move(pl));
  return id;
}

std::vector<PhysicalLinkId> Network::access_circuits(InterfaceId port) const {
  std::vector<PhysicalLinkId> out;
  for (const PhysicalLink& pl : physical_links_) {
    if (pl.access_port == port) out.push_back(pl.id);
  }
  return out;
}

CustomerSiteId Network::add_customer_site(std::string name,
                                          InterfaceId attachment,
                                          util::Ipv4Addr neighbor_ip,
                                          std::uint32_t asn,
                                          util::Ipv4Prefix announced,
                                          std::string mvpn) {
  const Interface& ifc = interface(attachment);
  if (ifc.kind != InterfaceKind::kCustomerFacing &&
      ifc.kind != InterfaceKind::kPeering) {
    throw ConfigError("Network: customer attaches to customer/peering port");
  }
  if (ifc.customer.valid()) {
    throw ConfigError("Network: interface already has a customer");
  }
  CustomerSiteId id(static_cast<std::uint32_t>(customers_.size()));
  customer_by_neighbor_[neighbor_ip] = id;
  customers_.push_back(CustomerSite{id, std::move(name), attachment,
                                    neighbor_ip, asn, announced,
                                    std::move(mvpn)});
  interfaces_[attachment.value()].customer = id;
  return id;
}

CdnNodeId Network::add_cdn_node(std::string name, PopId pop_id,
                                std::vector<RouterId> ingress_routers,
                                int server_count) {
  (void)pop(pop_id);
  for (RouterId r : ingress_routers) (void)router(r);
  if (cdn_by_name_.count(name)) {
    throw ConfigError("Network: duplicate cdn node '" + name + "'");
  }
  CdnNodeId id(static_cast<std::uint32_t>(cdn_nodes_.size()));
  cdn_by_name_.emplace(name, id);
  cdn_nodes_.push_back(CdnNode{id, std::move(name), pop_id,
                               std::move(ingress_routers), server_count});
  return id;
}

void Network::set_reflectors(RouterId router_id,
                             std::vector<RouterId> reflectors) {
  (void)router(router_id);
  for (RouterId r : reflectors) {
    if (router(r).role != RouterRole::kRouteReflector) {
      throw ConfigError("Network: reflector list contains non-reflector " +
                        router(r).name);
    }
  }
  routers_[router_id.value()].reflectors = std::move(reflectors);
}

void Network::set_mvpn(CustomerSiteId site, std::string vpn) {
  (void)customer(site);
  customers_[site.value()].mvpn = std::move(vpn);
}

std::optional<RouterId> Network::find_router(std::string_view name) const {
  auto it = router_by_name_.find(name);
  if (it == router_by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<RouterId> Network::find_router_by_loopback(
    util::Ipv4Addr addr) const {
  auto it = router_by_loopback_.find(addr);
  if (it == router_by_loopback_.end()) return std::nullopt;
  return it->second;
}

std::optional<PopId> Network::find_pop(std::string_view name) const {
  auto it = pop_by_name_.find(name);
  if (it == pop_by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<InterfaceId> Network::find_interface(RouterId router_id,
                                                   std::string_view name) const {
  for (InterfaceId i : router(router_id).interfaces) {
    if (interfaces_[i.value()].name == name) return i;
  }
  return std::nullopt;
}

std::optional<InterfaceId> Network::find_interface_by_address(
    util::Ipv4Addr addr) const {
  auto it = interface_by_addr_.find(addr);
  if (it == interface_by_addr_.end() || !it->second.valid()) return std::nullopt;
  return it->second;
}

std::optional<PhysicalLinkId> Network::find_circuit(
    std::string_view circuit_id) const {
  auto it = circuit_by_id_.find(circuit_id);
  if (it == circuit_by_id_.end()) return std::nullopt;
  return it->second;
}

std::optional<LogicalLinkId> Network::find_link_between(RouterId a,
                                                        RouterId b) const {
  for (InterfaceId i : router(a).interfaces) {
    const Interface& ifc = interfaces_[i.value()];
    if (!ifc.link.valid()) continue;
    if (link_peer(ifc.link, a) == b) return ifc.link;
  }
  return std::nullopt;
}

std::optional<CustomerSiteId> Network::find_customer_by_neighbor(
    util::Ipv4Addr neighbor_ip) const {
  auto it = customer_by_neighbor_.find(neighbor_ip);
  if (it == customer_by_neighbor_.end()) return std::nullopt;
  return it->second;
}

std::optional<CdnNodeId> Network::find_cdn_node(std::string_view name) const {
  auto it = cdn_by_name_.find(name);
  if (it == cdn_by_name_.end()) return std::nullopt;
  return it->second;
}

std::vector<LogicalLinkId> Network::links_of_router(RouterId router_id) const {
  std::vector<LogicalLinkId> out;
  for (InterfaceId i : router(router_id).interfaces) {
    const Interface& ifc = interfaces_[i.value()];
    if (ifc.link.valid()) out.push_back(ifc.link);
  }
  return out;
}

RouterId Network::link_peer(LogicalLinkId link_id, RouterId from) const {
  const LogicalLink& l = link(link_id);
  RouterId ra = interface(l.side_a).router;
  RouterId rb = interface(l.side_b).router;
  if (from == ra) return rb;
  if (from == rb) return ra;
  throw LookupError("Network: router not an endpoint of link " + l.name);
}

std::vector<CustomerSiteId> Network::mvpn_sites(std::string_view vpn) const {
  std::vector<CustomerSiteId> out;
  for (const CustomerSite& c : customers_) {
    if (!vpn.empty() && c.mvpn == vpn) out.push_back(c.id);
  }
  return out;
}

void Network::validate() const {
  for (const LogicalLink& l : links_) {
    const Interface& a = interface(l.side_a);
    const Interface& b = interface(l.side_b);
    if (!l.subnet.contains(a.address) || !l.subnet.contains(b.address)) {
      throw ConfigError("Network: link " + l.name +
                        " endpoints outside its subnet");
    }
    if (a.link != l.id || b.link != l.id) {
      throw ConfigError("Network: link " + l.name + " back-pointer mismatch");
    }
  }
  for (const Interface& ifc : interfaces_) {
    if (ifc.kind == InterfaceKind::kBackbone && !ifc.link.valid()) {
      throw ConfigError("Network: dangling backbone interface " + ifc.name +
                        " on " + router(ifc.router).name);
    }
  }
  for (const Router& r : routers_) {
    if (r.role == RouterRole::kProviderEdge && r.reflectors.empty()) {
      throw ConfigError("Network: PER " + r.name + " has no route reflectors");
    }
  }
}

}  // namespace grca::topology
