// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The spatial model of G-RCA (paper Fig. 2): location types, the Location
// value type attached to every event instance, and the LocationMapper that
// implements the §II-B conversion utilities (topology, cross-layer,
// logical/physical association, and dynamic-routing mappings).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "routing/bgp.h"
#include "routing/ospf.h"
#include "topology/network.h"

namespace grca::core {

/// The closed vocabulary of location types (Fig. 2). "A:B" pair types denote
/// all locations between points A and B (paper footnote 1).
enum class LocationType {
  kRouter,             // a = router name
  kInterface,          // a = router name, b = interface name
  kLineCard,           // a = router name, b = slot number
  kLogicalLink,        // a = canonical link name
  kPhysicalLink,       // a = circuit id
  kLayer1Device,       // a = device name
  kPop,                // a = pop name
  kRouterNeighbor,     // a = router name, b = neighbor IP (e.g. eBGP session)
  kVpnNeighbor,        // a = router, b = neighbor PE loopback, c = vpn
  kRouterPair,         // a = ingress router, b = egress router
  kPopPair,            // a = ingress pop, b = egress pop
  kIngressDestination, // a = ingress router, b = destination IP
  kCdnClient,          // a = cdn node name, b = client IP
  kCdnNode,            // a = cdn node name
  /// Join-level-only type: "Backbone Router-level Path" (paper §II-C). A
  /// pair-typed symptom projects to every router on its current shortest
  /// paths; element-typed diagnostics project to their own router. Projected
  /// locations are plain kRouter values.
  kRouterPath,
};

std::string_view to_string(LocationType type) noexcept;
/// Parses the name produced by to_string; throws ParseError otherwise.
LocationType parse_location_type(std::string_view text);

/// A concrete location: a type tag plus up to three string components whose
/// meaning depends on the type (see LocationType comments). Components use
/// canonical (collector-normalized) names.
struct Location {
  LocationType type = LocationType::kRouter;
  std::string a, b, c;

  /// Canonical string form, e.g. "interface|nyc-per1|ge-0/0/0". Usable as a
  /// hash/map key and stable across runs.
  std::string key() const;

  friend bool operator==(const Location&, const Location&) = default;
  friend auto operator<=>(const Location&, const Location&) = default;

  static Location router(std::string name);
  static Location interface(std::string router, std::string iface);
  static Location line_card(std::string router, int slot);
  static Location logical_link(std::string name);
  static Location physical_link(std::string circuit);
  static Location layer1(std::string device);
  static Location pop(std::string name);
  static Location router_neighbor(std::string router, std::string neighbor_ip);
  static Location vpn_neighbor(std::string router, std::string nbr_loopback,
                               std::string vpn);
  static Location router_pair(std::string ingress, std::string egress);
  static Location pop_pair(std::string ingress, std::string egress);
  static Location ingress_destination(std::string ingress, std::string dst_ip);
  static Location cdn_client(std::string node, std::string client_ip);
  static Location cdn_node(std::string node);
};

/// Implements the spatial model: projects any Location onto a set of
/// locations of a target ("join level") type, reconstructing the network
/// condition *as of a given time* for the routing-dependent mappings.
///
/// The mapper owns nothing; it reads the (RCA-side, config-derived) Network
/// and the route-monitor-derived OSPF/BGP simulators.
class LocationMapper {
 public:
  LocationMapper(const topology::Network& net, const routing::OspfSim& ospf,
                 const routing::BgpSim& bgp)
      : net_(net), ospf_(ospf), bgp_(bgp) {}

  /// Projects `loc` onto the `level` location type at time `t`. Returns every
  /// level-typed location associated with `loc` (possibly empty when the
  /// association cannot be resolved). For path-typed locations the projection
  /// unions the paths in effect at `t` and shortly before it, so that
  /// diagnostics which *changed* the path still join spatially.
  std::vector<Location> project(const Location& loc, LocationType level,
                                util::TimeSec t) const;

  /// True when the two locations share at least one projection at `level`.
  bool joins(const Location& symptom, const Location& diagnostic,
             LocationType level, util::TimeSec t) const;

  /// True when projections of this location type can depend on the routing
  /// state at the query time (they resolve endpoints and walk shortest
  /// paths). Every other type projects purely through static topology, so
  /// its projections are the same at every `t` — a JoinMemo keys those
  /// with a zero epoch stamp and reuses them across routing changes.
  static bool path_dependent(LocationType type) noexcept {
    switch (type) {
      case LocationType::kRouterPair:
      case LocationType::kPopPair:
      case LocationType::kIngressDestination:
      case LocationType::kCdnClient:
      case LocationType::kVpnNeighbor:
        return true;
      default:
        return false;
    }
  }

  /// Resolves a router name; nullopt for unknown names.
  std::optional<topology::RouterId> router(const std::string& name) const {
    return net_.find_router(name);
  }

  const topology::Network& network() const noexcept { return net_; }
  const routing::OspfSim& ospf() const noexcept { return ospf_; }
  const routing::BgpSim& bgp() const noexcept { return bgp_; }

  /// How far before `t` the path-dependent projections also look (seconds).
  static constexpr util::TimeSec kPathLookback = 60;

 private:
  /// Routers along ingress->egress shortest paths at time t (plus lookback).
  std::vector<topology::RouterId> pair_routers(topology::RouterId ingress,
                                               topology::RouterId egress,
                                               util::TimeSec t) const;
  std::vector<topology::LogicalLinkId> pair_links(topology::RouterId ingress,
                                                  topology::RouterId egress,
                                                  util::TimeSec t) const;
  /// Resolves the (ingress, egress) router pair implied by a path-typed
  /// location; nullopt when it cannot be determined.
  std::optional<std::pair<topology::RouterId, topology::RouterId>> endpoints(
      const Location& loc, util::TimeSec t) const;

  void project_router(topology::RouterId r, LocationType level,
                      std::vector<Location>& out) const;
  void project_interface(topology::InterfaceId i, LocationType level,
                         util::TimeSec t, std::vector<Location>& out) const;
  void project_link(topology::LogicalLinkId l, LocationType level,
                    util::TimeSec t, std::vector<Location>& out) const;

  const topology::Network& net_;
  const routing::OspfSim& ospf_;
  const routing::BgpSim& bgp_;
};

}  // namespace grca::core

/// Hashes the components directly (FNV-1a over type + a/b/c with unit
/// separators), so hashed containers and the interning LocationTable never
/// materialize the key() string.
template <>
struct std::hash<grca::core::Location> {
  std::size_t operator()(const grca::core::Location& loc) const noexcept {
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](unsigned char c) noexcept {
      h ^= c;
      h *= 1099511628211ull;
    };
    mix(static_cast<unsigned char>(loc.type));
    // 0x1f keeps ("ab","c") and ("a","bc") distinct across boundaries.
    for (char c : loc.a) mix(static_cast<unsigned char>(c));
    mix(0x1f);
    for (char c : loc.b) mix(static_cast<unsigned char>(c));
    mix(0x1f);
    for (char c : loc.c) mix(static_cast<unsigned char>(c));
    return static_cast<std::size_t>(h);
  }
};
