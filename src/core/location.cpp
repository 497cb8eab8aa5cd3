// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "core/location.h"

#include <algorithm>

#include "util/strings.h"

namespace grca::core {

namespace t = topology;
using util::TimeSec;

std::string_view to_string(LocationType type) noexcept {
  switch (type) {
    case LocationType::kRouter: return "router";
    case LocationType::kInterface: return "interface";
    case LocationType::kLineCard: return "linecard";
    case LocationType::kLogicalLink: return "logical-link";
    case LocationType::kPhysicalLink: return "physical-link";
    case LocationType::kLayer1Device: return "layer1-device";
    case LocationType::kPop: return "pop";
    case LocationType::kRouterNeighbor: return "router-neighbor";
    case LocationType::kVpnNeighbor: return "vpn-neighbor";
    case LocationType::kRouterPair: return "router-pair";
    case LocationType::kPopPair: return "pop-pair";
    case LocationType::kIngressDestination: return "ingress-destination";
    case LocationType::kCdnClient: return "cdn-client";
    case LocationType::kCdnNode: return "cdn-node";
    case LocationType::kRouterPath: return "router-path";
  }
  return "?";
}

LocationType parse_location_type(std::string_view text) {
  for (int i = 0; i <= static_cast<int>(LocationType::kRouterPath); ++i) {
    auto type = static_cast<LocationType>(i);
    if (to_string(type) == text) return type;
  }
  throw ParseError("unknown location type '" + std::string(text) + "'");
}

std::string Location::key() const {
  std::string_view name = to_string(type);
  std::string out;
  out.reserve(name.size() + a.size() + b.size() + c.size() + 3);
  out += name;
  out += '|';
  out += a;
  if (!b.empty() || !c.empty()) {
    out += '|';
    out += b;
  }
  if (!c.empty()) {
    out += '|';
    out += c;
  }
  return out;
}

Location Location::router(std::string name) {
  return Location{LocationType::kRouter, std::move(name), "", ""};
}
Location Location::interface(std::string router, std::string iface) {
  return Location{LocationType::kInterface, std::move(router), std::move(iface),
                  ""};
}
Location Location::line_card(std::string router, int slot) {
  return Location{LocationType::kLineCard, std::move(router),
                  std::to_string(slot), ""};
}
Location Location::logical_link(std::string name) {
  return Location{LocationType::kLogicalLink, std::move(name), "", ""};
}
Location Location::physical_link(std::string circuit) {
  return Location{LocationType::kPhysicalLink, std::move(circuit), "", ""};
}
Location Location::layer1(std::string device) {
  return Location{LocationType::kLayer1Device, std::move(device), "", ""};
}
Location Location::pop(std::string name) {
  return Location{LocationType::kPop, std::move(name), "", ""};
}
Location Location::router_neighbor(std::string router, std::string neighbor_ip) {
  return Location{LocationType::kRouterNeighbor, std::move(router),
                  std::move(neighbor_ip), ""};
}
Location Location::vpn_neighbor(std::string router, std::string nbr_loopback,
                                std::string vpn) {
  return Location{LocationType::kVpnNeighbor, std::move(router),
                  std::move(nbr_loopback), std::move(vpn)};
}
Location Location::router_pair(std::string ingress, std::string egress) {
  return Location{LocationType::kRouterPair, std::move(ingress),
                  std::move(egress), ""};
}
Location Location::pop_pair(std::string ingress, std::string egress) {
  return Location{LocationType::kPopPair, std::move(ingress), std::move(egress),
                  ""};
}
Location Location::ingress_destination(std::string ingress, std::string dst) {
  return Location{LocationType::kIngressDestination, std::move(ingress),
                  std::move(dst), ""};
}
Location Location::cdn_client(std::string node, std::string client_ip) {
  return Location{LocationType::kCdnClient, std::move(node),
                  std::move(client_ip), ""};
}
Location Location::cdn_node(std::string node) {
  return Location{LocationType::kCdnNode, std::move(node), "", ""};
}

// ---- LocationMapper ---------------------------------------------------------

namespace {

void push_unique(std::vector<Location>& out, Location loc) {
  if (std::find(out.begin(), out.end(), loc) == out.end()) {
    out.push_back(std::move(loc));
  }
}

}  // namespace

void LocationMapper::project_router(t::RouterId rid, LocationType level,
                                    std::vector<Location>& out) const {
  const t::Router& r = net_.router(rid);
  switch (level) {
    case LocationType::kRouter:
      push_unique(out, Location::router(r.name));
      break;
    case LocationType::kPop:
      push_unique(out, Location::pop(net_.pop(r.pop).name));
      break;
    case LocationType::kInterface:
      for (t::InterfaceId i : r.interfaces) {
        push_unique(out, Location::interface(r.name, net_.interface(i).name));
      }
      break;
    case LocationType::kLineCard:
      for (t::LineCardId c : r.line_cards) {
        push_unique(out, Location::line_card(r.name, net_.line_card(c).slot));
      }
      break;
    case LocationType::kLogicalLink:
      for (t::LogicalLinkId l : net_.links_of_router(rid)) {
        push_unique(out, Location::logical_link(net_.link(l).name));
      }
      break;
    default:
      break;
  }
}

void LocationMapper::project_interface(t::InterfaceId iid, LocationType level,
                                       TimeSec time,
                                       std::vector<Location>& out) const {
  const t::Interface& ifc = net_.interface(iid);
  const t::Router& r = net_.router(ifc.router);
  switch (level) {
    case LocationType::kInterface:
      push_unique(out, Location::interface(r.name, ifc.name));
      break;
    case LocationType::kRouter:
      push_unique(out, Location::router(r.name));
      break;
    case LocationType::kPop:
      push_unique(out, Location::pop(net_.pop(r.pop).name));
      break;
    case LocationType::kLineCard:
      if (ifc.line_card.valid()) {
        push_unique(out, Location::line_card(
                             r.name, net_.line_card(ifc.line_card).slot));
      }
      break;
    case LocationType::kLogicalLink:
      if (ifc.link.valid()) {
        push_unique(out, Location::logical_link(net_.link(ifc.link).name));
      }
      break;
    case LocationType::kPhysicalLink:
      if (ifc.link.valid()) {
        for (t::PhysicalLinkId p : net_.link(ifc.link).physical) {
          push_unique(out,
                      Location::physical_link(net_.physical_link(p).circuit_id));
        }
      }
      for (t::PhysicalLinkId p : net_.access_circuits(iid)) {
        push_unique(out,
                    Location::physical_link(net_.physical_link(p).circuit_id));
      }
      break;
    case LocationType::kLayer1Device: {
      auto add_path = [&](t::PhysicalLinkId p) {
        for (t::Layer1DeviceId d : net_.physical_link(p).path) {
          push_unique(out, Location::layer1(net_.layer1_device(d).name));
        }
      };
      if (ifc.link.valid()) {
        for (t::PhysicalLinkId p : net_.link(ifc.link).physical) add_path(p);
      }
      for (t::PhysicalLinkId p : net_.access_circuits(iid)) add_path(p);
      break;
    }
    default:
      (void)time;
      break;
  }
}

void LocationMapper::project_link(t::LogicalLinkId lid, LocationType level,
                                  TimeSec time,
                                  std::vector<Location>& out) const {
  const t::LogicalLink& l = net_.link(lid);
  switch (level) {
    case LocationType::kLogicalLink:
      push_unique(out, Location::logical_link(l.name));
      break;
    case LocationType::kInterface:
    case LocationType::kRouter:
    case LocationType::kPop:
    case LocationType::kLineCard:
      project_interface(l.side_a, level, time, out);
      project_interface(l.side_b, level, time, out);
      break;
    case LocationType::kPhysicalLink:
      for (t::PhysicalLinkId p : l.physical) {
        push_unique(out,
                    Location::physical_link(net_.physical_link(p).circuit_id));
      }
      break;
    case LocationType::kLayer1Device:
      for (t::PhysicalLinkId p : l.physical) {
        for (t::Layer1DeviceId d : net_.physical_link(p).path) {
          push_unique(out, Location::layer1(net_.layer1_device(d).name));
        }
      }
      break;
    default:
      break;
  }
}

std::vector<t::RouterId> LocationMapper::pair_routers(t::RouterId ingress,
                                                      t::RouterId egress,
                                                      TimeSec time) const {
  auto now = ospf_.routers_on_paths(ingress, egress, time);
  auto before = ospf_.routers_on_paths(ingress, egress, time - kPathLookback);
  now.insert(now.end(), before.begin(), before.end());
  std::sort(now.begin(), now.end());
  now.erase(std::unique(now.begin(), now.end()), now.end());
  return now;
}

std::vector<t::LogicalLinkId> LocationMapper::pair_links(t::RouterId ingress,
                                                         t::RouterId egress,
                                                         TimeSec time) const {
  auto now = ospf_.links_on_paths(ingress, egress, time);
  auto before = ospf_.links_on_paths(ingress, egress, time - kPathLookback);
  now.insert(now.end(), before.begin(), before.end());
  std::sort(now.begin(), now.end());
  now.erase(std::unique(now.begin(), now.end()), now.end());
  return now;
}

std::optional<std::pair<t::RouterId, t::RouterId>> LocationMapper::endpoints(
    const Location& loc, TimeSec time) const {
  switch (loc.type) {
    case LocationType::kRouterPair: {
      auto a = net_.find_router(loc.a);
      auto b = net_.find_router(loc.b);
      if (!a || !b) return std::nullopt;
      return std::make_pair(*a, *b);
    }
    case LocationType::kPopPair: {
      // Active probes are anchored at one core router per PoP; the
      // representative must not depend on inventory enumeration order, so
      // pick the lexicographically smallest core-router name.
      auto pick = [&](const std::string& name) -> std::optional<t::RouterId> {
        auto pop = net_.find_pop(name);
        if (!pop) return std::nullopt;
        std::optional<t::RouterId> best;
        for (const t::Router& r : net_.routers()) {
          if (r.pop != *pop || r.role != t::RouterRole::kCore) continue;
          if (!best || r.name < net_.router(*best).name) best = r.id;
        }
        return best;
      };
      auto a = pick(loc.a);
      auto b = pick(loc.b);
      if (!a || !b) return std::nullopt;
      return std::make_pair(*a, *b);
    }
    case LocationType::kIngressDestination: {
      auto ingress = net_.find_router(loc.a);
      if (!ingress) return std::nullopt;
      auto egress =
          bgp_.best_egress(*ingress, util::Ipv4Addr::parse(loc.b), time);
      if (!egress) return std::nullopt;
      return std::make_pair(*ingress, *egress);
    }
    case LocationType::kCdnClient: {
      auto node = net_.find_cdn_node(loc.a);
      if (!node) return std::nullopt;
      const t::CdnNode& cdn = net_.cdn_node(*node);
      if (cdn.ingress_routers.empty()) return std::nullopt;
      t::RouterId ingress = cdn.ingress_routers[0];
      auto egress =
          bgp_.best_egress(ingress, util::Ipv4Addr::parse(loc.b), time);
      if (!egress) return std::nullopt;
      return std::make_pair(ingress, *egress);
    }
    case LocationType::kVpnNeighbor: {
      auto a = net_.find_router(loc.a);
      auto b = net_.find_router_by_loopback(util::Ipv4Addr::parse(loc.b));
      if (!a || !b) return std::nullopt;
      return std::make_pair(*a, *b);
    }
    default:
      return std::nullopt;
  }
}

std::vector<Location> LocationMapper::project(const Location& loc,
                                              LocationType level,
                                              TimeSec time) const {
  std::vector<Location> out;
  if (loc.type == level) {
    out.push_back(loc);
    return out;
  }
  // "Backbone Router-level Path": pair-typed locations cover every router on
  // their shortest paths; everything else degrades to plain router scope.
  if (level == LocationType::kRouterPath) {
    switch (loc.type) {
      case LocationType::kRouterPair:
      case LocationType::kPopPair:
      case LocationType::kIngressDestination:
      case LocationType::kCdnClient:
      case LocationType::kVpnNeighbor: {
        auto ep = endpoints(loc, time);
        if (!ep) return out;
        for (t::RouterId r : pair_routers(ep->first, ep->second, time)) {
          push_unique(out, Location::router(net_.router(r).name));
        }
        push_unique(out, Location::router(net_.router(ep->first).name));
        push_unique(out, Location::router(net_.router(ep->second).name));
        return out;
      }
      default:
        return project(loc, LocationType::kRouter, time);
    }
  }
  switch (loc.type) {
    case LocationType::kRouter: {
      auto r = net_.find_router(loc.a);
      if (r) project_router(*r, level, out);
      break;
    }
    case LocationType::kInterface: {
      auto r = net_.find_router(loc.a);
      if (!r) break;
      auto i = net_.find_interface(*r, loc.b);
      if (i) project_interface(*i, level, time, out);
      break;
    }
    case LocationType::kLineCard: {
      auto r = net_.find_router(loc.a);
      if (!r) break;
      // Like an unknown router, a slot that is not wholly a number
      // projects to nothing.
      auto slot = util::parse_number<int>(loc.b);
      if (!slot) break;
      for (t::LineCardId c : net_.router(*r).line_cards) {
        if (net_.line_card(c).slot != *slot) continue;
        if (level == LocationType::kRouter) {
          push_unique(out, Location::router(loc.a));
        } else {
          for (t::InterfaceId i : net_.line_card(c).interfaces) {
            project_interface(i, level, time, out);
          }
        }
      }
      break;
    }
    case LocationType::kLogicalLink: {
      for (const t::LogicalLink& l : net_.links()) {
        if (l.name == loc.a) {
          project_link(l.id, level, time, out);
          break;
        }
      }
      break;
    }
    case LocationType::kPhysicalLink: {
      auto p = net_.find_circuit(loc.a);
      if (!p) break;
      const t::PhysicalLink& pl = net_.physical_link(*p);
      if (level == LocationType::kLayer1Device) {
        for (t::Layer1DeviceId d : pl.path) {
          push_unique(out, Location::layer1(net_.layer1_device(d).name));
        }
      } else if (pl.logical.valid()) {
        project_link(pl.logical, level, time, out);
      } else if (pl.access_port.valid()) {
        project_interface(pl.access_port, level, time, out);
      }
      break;
    }
    case LocationType::kLayer1Device: {
      // A layer-1 device affects every circuit through it.
      for (const t::PhysicalLink& pl : net_.physical_links()) {
        if (std::find_if(pl.path.begin(), pl.path.end(), [&](auto d) {
              return net_.layer1_device(d).name == loc.a;
            }) == pl.path.end()) {
          continue;
        }
        if (level == LocationType::kPhysicalLink) {
          push_unique(out, Location::physical_link(pl.circuit_id));
        } else if (pl.logical.valid()) {
          project_link(pl.logical, level, time, out);
        } else if (pl.access_port.valid()) {
          project_interface(pl.access_port, level, time, out);
        }
      }
      break;
    }
    case LocationType::kPop: {
      if (level == LocationType::kRouter) {
        auto pop = net_.find_pop(loc.a);
        if (!pop) break;
        for (const t::Router& r : net_.routers()) {
          if (r.pop == *pop) push_unique(out, Location::router(r.name));
        }
      }
      break;
    }
    case LocationType::kRouterNeighbor: {
      // The eBGP-session location: resolve the customer attachment port
      // (§II-B utility 2) and project through it; the session's router
      // itself is also in scope.
      auto r = net_.find_router(loc.a);
      if (!r) break;
      auto site = net_.find_customer_by_neighbor(util::Ipv4Addr::parse(loc.b));
      if (site) {
        project_interface(net_.customer(*site).attachment, level, time, out);
      }
      if (level == LocationType::kRouter) {
        push_unique(out, Location::router(loc.a));
      } else if (level == LocationType::kPop) {
        project_router(*r, level, out);
      }
      break;
    }
    case LocationType::kVpnNeighbor: {
      // Both ends of the PE-PE adjacency are in scope at router level; the
      // path between them is in scope only at link / router-path level.
      auto ep = endpoints(loc, time);
      if (!ep) break;
      if (level == LocationType::kRouter) {
        push_unique(out, Location::router(net_.router(ep->first).name));
        push_unique(out, Location::router(net_.router(ep->second).name));
      } else if (level == LocationType::kLogicalLink) {
        for (t::LogicalLinkId l : pair_links(ep->first, ep->second, time)) {
          push_unique(out, Location::logical_link(net_.link(l).name));
        }
      } else if (level == LocationType::kPop) {
        project_router(ep->first, level, out);
        project_router(ep->second, level, out);
      }
      break;
    }
    case LocationType::kRouterPath:
      break;  // join-level-only marker; never a concrete event location
    case LocationType::kCdnNode: {
      auto node = net_.find_cdn_node(loc.a);
      if (!node) break;
      const t::CdnNode& cdn = net_.cdn_node(*node);
      if (level == LocationType::kRouter || level == LocationType::kPop ||
          level == LocationType::kLogicalLink ||
          level == LocationType::kInterface ||
          level == LocationType::kLineCard) {
        for (t::RouterId r : cdn.ingress_routers) {
          project_router(r, level, out);
        }
      }
      break;
    }
    case LocationType::kRouterPair:
    case LocationType::kPopPair:
    case LocationType::kIngressDestination:
    case LocationType::kCdnClient: {
      if (loc.type == LocationType::kCdnClient &&
          level == LocationType::kCdnNode) {
        push_unique(out, Location::cdn_node(loc.a));
        break;
      }
      auto ep = endpoints(loc, time);
      if (!ep) break;
      if (level == LocationType::kRouter) {
        for (t::RouterId r : pair_routers(ep->first, ep->second, time)) {
          push_unique(out, Location::router(net_.router(r).name));
        }
      } else if (level == LocationType::kLogicalLink) {
        for (t::LogicalLinkId l : pair_links(ep->first, ep->second, time)) {
          push_unique(out, Location::logical_link(net_.link(l).name));
        }
      } else if (level == LocationType::kInterface) {
        for (t::LogicalLinkId l : pair_links(ep->first, ep->second, time)) {
          project_link(l, LocationType::kInterface, time, out);
        }
      } else if (level == LocationType::kPop) {
        project_router(ep->first, level, out);
        project_router(ep->second, level, out);
      } else if (level == LocationType::kRouterPair) {
        push_unique(out, Location::router_pair(net_.router(ep->first).name,
                                               net_.router(ep->second).name));
      }
      break;
    }
  }
  return out;
}

bool LocationMapper::joins(const Location& symptom, const Location& diagnostic,
                           LocationType level, TimeSec time) const {
  auto s = project(symptom, level, time);
  if (s.empty()) return false;
  auto d = project(diagnostic, level, time);
  for (const Location& x : d) {
    if (std::find(s.begin(), s.end(), x) != s.end()) return true;
  }
  return false;
}

}  // namespace grca::core
