// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The Network is the authoritative inventory of a modeled ISP: every router,
// line card, interface, logical and physical link, layer-1 device, customer
// site and CDN node, with cross-element consistency maintained by the
// builder API. It corresponds to the union of data the paper's G-RCA pulls
// from router configurations and the external layer-1 inventory database
// (§II-B utilities 4-7).
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "topology/elements.h"
#include "util/error.h"
#include "util/strings.h"

namespace grca::topology {

class Network {
 public:
  // ---- Builder API -------------------------------------------------------
  PopId add_pop(std::string name, util::TimeZone tz);
  RouterId add_router(std::string name, PopId pop, RouterRole role,
                      util::Ipv4Addr loopback);
  LineCardId add_line_card(RouterId router, int slot);
  InterfaceId add_interface(RouterId router, LineCardId card, std::string name,
                            InterfaceKind kind, util::Ipv4Addr address);
  /// Connects two backbone interfaces with a logical link. Both interfaces
  /// must be kBackbone and not already attached to a link.
  LogicalLinkId add_logical_link(InterfaceId a, InterfaceId b,
                                 util::Ipv4Prefix subnet, int ospf_weight,
                                 double capacity_gbps);
  Layer1DeviceId add_layer1_device(std::string name, Layer1Kind kind,
                                   PopId pop);
  PhysicalLinkId add_physical_link(std::string circuit_id, LogicalLinkId link,
                                   Layer1Kind kind,
                                   std::vector<Layer1DeviceId> path);
  /// Adds a layer-1 access circuit feeding a customer-facing interface.
  PhysicalLinkId add_access_circuit(std::string circuit_id, InterfaceId port,
                                    Layer1Kind kind,
                                    std::vector<Layer1DeviceId> path);
  /// Circuits feeding the given customer-facing interface.
  std::vector<PhysicalLinkId> access_circuits(InterfaceId port) const;
  CustomerSiteId add_customer_site(std::string name, InterfaceId attachment,
                                   util::Ipv4Addr neighbor_ip,
                                   std::uint32_t asn, util::Ipv4Prefix announced,
                                   std::string mvpn = "");
  CdnNodeId add_cdn_node(std::string name, PopId pop,
                         std::vector<RouterId> ingress_routers,
                         int server_count);

  /// Assigns the route reflectors that feed a router with BGP updates.
  void set_reflectors(RouterId router, std::vector<RouterId> reflectors);

  /// Tags a customer site as a member of the given multicast VPN.
  void set_mvpn(CustomerSiteId site, std::string vpn);

  // ---- Element access ----------------------------------------------------
  const Pop& pop(PopId id) const { return at(pops_, id.value(), "pop"); }
  const Router& router(RouterId id) const {
    return at(routers_, id.value(), "router");
  }
  const LineCard& line_card(LineCardId id) const {
    return at(line_cards_, id.value(), "line card");
  }
  const Interface& interface(InterfaceId id) const {
    return at(interfaces_, id.value(), "interface");
  }
  const LogicalLink& link(LogicalLinkId id) const {
    return at(links_, id.value(), "logical link");
  }
  const Layer1Device& layer1_device(Layer1DeviceId id) const {
    return at(layer1_devices_, id.value(), "layer-1 device");
  }
  const PhysicalLink& physical_link(PhysicalLinkId id) const {
    return at(physical_links_, id.value(), "physical link");
  }
  const CustomerSite& customer(CustomerSiteId id) const {
    return at(customers_, id.value(), "customer site");
  }
  const CdnNode& cdn_node(CdnNodeId id) const {
    return at(cdn_nodes_, id.value(), "cdn node");
  }

  const std::vector<Pop>& pops() const noexcept { return pops_; }
  const std::vector<Router>& routers() const noexcept { return routers_; }
  const std::vector<LineCard>& line_cards() const noexcept {
    return line_cards_;
  }
  const std::vector<Interface>& interfaces() const noexcept {
    return interfaces_;
  }
  const std::vector<LogicalLink>& links() const noexcept { return links_; }
  const std::vector<Layer1Device>& layer1_devices() const noexcept {
    return layer1_devices_;
  }
  const std::vector<PhysicalLink>& physical_links() const noexcept {
    return physical_links_;
  }
  const std::vector<CustomerSite>& customers() const noexcept {
    return customers_;
  }
  const std::vector<CdnNode>& cdn_nodes() const noexcept { return cdn_nodes_; }

  // ---- Lookups (the raw material for §II-B conversion utilities) ---------
  std::optional<RouterId> find_router(std::string_view name) const;
  /// Resolves a router by its loopback address (PIM neighbors are identified
  /// by PE loopbacks in syslog).
  std::optional<RouterId> find_router_by_loopback(util::Ipv4Addr addr) const;
  std::optional<PopId> find_pop(std::string_view name) const;
  /// Finds an interface by (router, interface-name).
  std::optional<InterfaceId> find_interface(RouterId router,
                                            std::string_view name) const;
  /// Utility 4: associates an IP address with the interface owning it.
  std::optional<InterfaceId> find_interface_by_address(
      util::Ipv4Addr addr) const;
  /// Maps a layer-1 circuit id back to its physical link.
  std::optional<PhysicalLinkId> find_circuit(std::string_view circuit_id) const;
  /// The logical link connecting two routers directly, if any.
  std::optional<LogicalLinkId> find_link_between(RouterId a, RouterId b) const;
  /// Customer site reached through the given neighbor IP (utility 2).
  std::optional<CustomerSiteId> find_customer_by_neighbor(
      util::Ipv4Addr neighbor_ip) const;
  std::optional<CdnNodeId> find_cdn_node(std::string_view name) const;

  /// All logical links with an endpoint on the given router.
  std::vector<LogicalLinkId> links_of_router(RouterId router) const;
  /// The far-side router of a link relative to `from`.
  RouterId link_peer(LogicalLinkId link, RouterId from) const;
  /// PER customer sites in the given MVPN.
  std::vector<CustomerSiteId> mvpn_sites(std::string_view vpn) const;

  /// Validates cross-element invariants; throws ConfigError on violation.
  /// Intended to run once after construction.
  void validate() const;

 private:
  template <typename T>
  static const T& at(const std::vector<T>& v, std::uint32_t i,
                     const char* what) {
    if (i >= v.size()) {
      throw LookupError(std::string("Network: invalid ") + what + " id " +
                        std::to_string(i));
    }
    return v[i];
  }

  std::vector<Pop> pops_;
  std::vector<Router> routers_;
  std::vector<LineCard> line_cards_;
  std::vector<Interface> interfaces_;
  std::vector<LogicalLink> links_;
  std::vector<Layer1Device> layer1_devices_;
  std::vector<PhysicalLink> physical_links_;
  std::vector<CustomerSite> customers_;
  std::vector<CdnNode> cdn_nodes_;

  util::StringMap<RouterId> router_by_name_;
  std::unordered_map<util::Ipv4Addr, RouterId> router_by_loopback_;
  util::StringMap<PopId> pop_by_name_;
  std::unordered_map<util::Ipv4Addr, InterfaceId> interface_by_addr_;
  util::StringMap<PhysicalLinkId> circuit_by_id_;
  std::unordered_map<util::Ipv4Addr, CustomerSiteId> customer_by_neighbor_;
  util::StringMap<CdnNodeId> cdn_by_name_;
};

}  // namespace grca::topology
