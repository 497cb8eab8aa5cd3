// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "topology/config.h"

#include <map>
#include <sstream>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "util/strings.h"

namespace grca::topology {
namespace {

using util::Ipv4Addr;
using util::Ipv4Prefix;
using util::to_number;

RouterRole parse_role(std::string_view s) {
  if (s == "core") return RouterRole::kCore;
  if (s == "access") return RouterRole::kAccess;
  if (s == "per") return RouterRole::kProviderEdge;
  if (s == "reflector") return RouterRole::kRouteReflector;
  throw ParseError("unknown role '" + std::string(s) + "'");
}

Layer1Kind parse_l1_kind(std::string_view s) {
  if (s == "sonet") return Layer1Kind::kSonetRing;
  if (s == "optical-mesh") return Layer1Kind::kOpticalMesh;
  throw ParseError("unknown layer-1 kind '" + std::string(s) + "'");
}

InterfaceKind parse_if_kind(std::string_view s) {
  if (s == "backbone") return InterfaceKind::kBackbone;
  if (s == "customer") return InterfaceKind::kCustomerFacing;
  if (s == "peering") return InterfaceKind::kPeering;
  throw ParseError("unknown interface kind '" + std::string(s) + "'");
}

}  // namespace

std::string render_config(const Network& net, RouterId router_id) {
  const Router& r = net.router(router_id);
  const Pop& pop = net.pop(r.pop);
  std::ostringstream out;
  out << "hostname " << r.name << "\n";
  out << "pop " << pop.name << "\n";
  out << "timezone " << pop.timezone.name() << " "
      << pop.timezone.offset_seconds() << "\n";
  out << "role " << to_string(r.role) << "\n";
  out << "loopback " << r.loopback.to_string() << "\n";
  for (RouterId rr : r.reflectors) out << "reflector " << net.router(rr).name << "\n";
  for (InterfaceId iid : r.interfaces) {
    const Interface& ifc = net.interface(iid);
    out << "interface " << ifc.name << "\n";
    out << " card " << net.line_card(ifc.line_card).slot << "\n";
    out << " kind " << to_string(ifc.kind) << "\n";
    if (ifc.kind == InterfaceKind::kBackbone) {
      const LogicalLink& link = net.link(ifc.link);
      out << " ip address " << ifc.address.to_string() << "/"
          << link.subnet.length() << "\n";
      out << " ospf weight " << link.ospf_weight << "\n";
      out << " bandwidth " << link.capacity_gbps << "\n";
      InterfaceId far =
          link.side_a == iid ? link.side_b : link.side_a;
      const Interface& fifc = net.interface(far);
      out << " link-peer " << net.router(fifc.router).name << " " << fifc.name
          << "\n";
      for (PhysicalLinkId pl : link.physical) {
        out << " circuit " << net.physical_link(pl).circuit_id << "\n";
      }
    } else if (ifc.customer.valid()) {
      const CustomerSite& c = net.customer(ifc.customer);
      out << " ip address " << ifc.address.to_string() << "/30\n";
      out << " neighbor " << c.neighbor_ip.to_string() << " remote-as "
          << c.asn << "\n";
      out << " neighbor-prefix " << c.announced.to_string() << "\n";
      out << " customer " << c.name << "\n";
      if (!c.mvpn.empty()) out << " mvpn " << c.mvpn << "\n";
      for (PhysicalLinkId pl : net.access_circuits(iid)) {
        out << " circuit " << net.physical_link(pl).circuit_id << "\n";
      }
    } else {
      out << " ip address " << ifc.address.to_string() << "/30\n";
    }
  }
  return out.str();
}

std::vector<std::string> render_all_configs(const Network& net) {
  std::vector<std::string> out;
  out.reserve(net.routers().size());
  for (const Router& r : net.routers()) out.push_back(render_config(net, r.id));
  return out;
}

std::string render_layer1_inventory(const Network& net) {
  std::ostringstream out;
  for (const Layer1Device& d : net.layer1_devices()) {
    out << "layer1-device " << d.name << " " << to_string(d.kind) << " "
        << net.pop(d.pop).name << "\n";
  }
  for (const PhysicalLink& p : net.physical_links()) {
    out << "circuit " << p.circuit_id << " " << to_string(p.kind) << " path";
    for (Layer1DeviceId d : p.path) out << " " << net.layer1_device(d).name;
    out << "\n";
  }
  for (const CdnNode& c : net.cdn_nodes()) {
    out << "cdn-node " << c.name << " " << net.pop(c.pop).name << " servers "
        << c.server_count << " ingress";
    for (RouterId r : c.ingress_routers) out << " " << net.router(r).name;
    out << "\n";
  }
  return out.str();
}

namespace {

// Tokenizing ------------------------------------------------------------------

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}

/// The whitespace-separated tokens of `line`, as views into it.
void tokenize(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) ++i;
    const std::size_t begin = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    if (i > begin) out.push_back(line.substr(begin, i - begin));
  }
}

/// Calls `fn(tokens)` for each line of `text` that has a token. A ParseError
/// from `fn` is rethrown naming `source` and the 1-based line.
template <typename Fn>
void for_each_line(std::string_view text, std::string_view source, Fn&& fn) {
  std::vector<std::string_view> tok;
  std::size_t line_no = 0;
  for (std::size_t begin = 0; begin < text.size();) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    ++line_no;
    tokenize(text.substr(begin, end - begin), tok);
    begin = end + 1;
    if (tok.empty()) continue;
    try {
      fn(tok);
    } catch (const ParseError& e) {
      throw ParseError(std::string(source) + ":" + std::to_string(line_no) +
                       ": " + e.what());
    }
  }
}

// Intermediate parse products -----------------------------------------------
// Names are views into the config and inventory texts, which outlive them.

struct IfSpec {
  std::string_view name;
  int card = 0;
  InterfaceKind kind = InterfaceKind::kBackbone;
  Ipv4Addr address;
  int prefix_len = 30;
  int ospf_weight = 0;
  double bandwidth = 0.0;
  std::string_view peer_router, peer_iface;
  std::vector<std::string_view> circuits;
  Ipv4Addr neighbor_ip;
  std::uint32_t asn = 0;
  Ipv4Prefix neighbor_prefix;
  std::string_view customer;
  std::string_view mvpn;
};

struct RouterSpec {
  std::string_view name, pop, tz_name;
  int tz_offset = 0;
  RouterRole role = RouterRole::kCore;
  Ipv4Addr loopback;
  std::vector<std::string_view> reflectors;
  std::vector<IfSpec> interfaces;
};

RouterSpec parse_router_config(std::string_view text, std::string_view source) {
  RouterSpec spec;
  IfSpec* cur = nullptr;
  for_each_line(text, source, [&](const std::vector<std::string_view>& tok) {
    const std::string_view key = tok[0];
    if (key[0] == '!') return;  // comment
    auto need = [&](std::size_t n) {
      if (tok.size() < n) {
        throw ParseError("truncated '" + std::string(key) + "' line");
      }
    };
    if (key == "hostname") { need(2); spec.name = tok[1]; }
    else if (key == "pop") { need(2); spec.pop = tok[1]; }
    else if (key == "timezone") {
      need(3);
      spec.tz_name = tok[1];
      spec.tz_offset = to_number<int>(tok[2], "timezone offset");
    }
    else if (key == "role") { need(2); spec.role = parse_role(tok[1]); }
    else if (key == "loopback") { need(2); spec.loopback = Ipv4Addr::parse(tok[1]); }
    else if (key == "reflector") { need(2); spec.reflectors.push_back(tok[1]); }
    else if (key == "interface") {
      need(2);
      spec.interfaces.emplace_back();
      cur = &spec.interfaces.back();
      cur->name = tok[1];
    } else {
      if (cur == nullptr) {
        throw ParseError("'" + std::string(key) + "' outside interface block");
      }
      if (key == "card") { need(2); cur->card = to_number<int>(tok[1], "card slot"); }
      else if (key == "kind") { need(2); cur->kind = parse_if_kind(tok[1]); }
      else if (key == "ip") {
        need(3);  // "ip address a.b.c.d/len"
        auto slash = tok[2].find('/');
        if (slash == std::string_view::npos) {
          throw ParseError("bad ip '" + std::string(tok[2]) + "'");
        }
        cur->address = Ipv4Addr::parse(tok[2].substr(0, slash));
        cur->prefix_len = to_number<int>(tok[2].substr(slash + 1), "prefix length");
      }
      else if (key == "ospf") { need(3); cur->ospf_weight = to_number<int>(tok[2], "ospf weight"); }
      else if (key == "bandwidth") { need(2); cur->bandwidth = to_number<double>(tok[1], "bandwidth"); }
      else if (key == "link-peer") {
        need(3);
        cur->peer_router = tok[1];
        cur->peer_iface = tok[2];
      }
      else if (key == "circuit") { need(2); cur->circuits.push_back(tok[1]); }
      else if (key == "neighbor") {
        need(4);  // "neighbor <ip> remote-as <asn>"
        cur->neighbor_ip = Ipv4Addr::parse(tok[1]);
        cur->asn = to_number<std::uint32_t>(tok[3], "remote-as");
      }
      else if (key == "neighbor-prefix") { need(2); cur->neighbor_prefix = Ipv4Prefix::parse(tok[1]); }
      else if (key == "customer") { need(2); cur->customer = tok[1]; }
      else if (key == "mvpn") { need(2); cur->mvpn = tok[1]; }
      else throw ParseError("unknown keyword '" + std::string(key) + "'");
    }
  });
  if (spec.name.empty()) {
    throw ParseError(std::string(source) + ": missing hostname");
  }
  return spec;
}

}  // namespace

Network build_network_from_configs(
    const std::vector<std::string>& configs,
    const std::string& layer1_inventory,
    const std::vector<std::string>& config_names,
    const std::string& inventory_name) {
  Network net;

  // Pass 0: parse everything.
  std::vector<RouterSpec> specs;
  specs.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string source = i < config_names.size()
                                   ? config_names[i]
                                   : "config " + std::to_string(i + 1);
    specs.push_back(parse_router_config(configs[i], source));
  }

  struct CircuitSpec {
    Layer1Kind kind;
    std::vector<std::string_view> path;
  };
  std::unordered_map<std::string_view, CircuitSpec> circuits;
  struct CdnSpec {
    std::string_view name, pop;
    int servers = 0;
    std::vector<std::string_view> ingress;
  };
  std::vector<CdnSpec> cdn_specs;
  std::unordered_map<std::string_view, Layer1DeviceId> l1_by_name;

  // Pass 1: PoPs (from configs; first mention defines the zone).
  std::unordered_map<std::string_view, PopId> pop_ids;
  for (const RouterSpec& s : specs) {
    if (!pop_ids.count(s.pop)) {
      pop_ids.emplace(s.pop, net.add_pop(std::string(s.pop),
                                         util::TimeZone(std::string(s.tz_name),
                                                        s.tz_offset)));
    }
  }

  // Pass 2: layer-1 inventory (devices need PoPs; circuits applied later).
  for_each_line(layer1_inventory, inventory_name,
                [&](const std::vector<std::string_view>& tok) {
    if (tok[0] == "layer1-device") {
      if (tok.size() != 4) throw ParseError("bad device line");
      auto pit = pop_ids.find(tok[3]);
      if (pit == pop_ids.end()) {
        // A layer-1 site with no routers configured: create the pop as UTC.
        pit = pop_ids
                  .emplace(tok[3], net.add_pop(std::string(tok[3]),
                                               util::TimeZone::utc()))
                  .first;
      }
      l1_by_name.emplace(tok[1],
                         net.add_layer1_device(std::string(tok[1]),
                                               parse_l1_kind(tok[2]),
                                               pit->second));
    } else if (tok[0] == "circuit") {
      if (tok.size() < 5 || tok[3] != "path") {
        throw ParseError("bad circuit line");
      }
      CircuitSpec cs;
      cs.kind = parse_l1_kind(tok[2]);
      cs.path.assign(tok.begin() + 4, tok.end());
      circuits.emplace(tok[1], std::move(cs));
    } else if (tok[0] == "cdn-node") {
      // "cdn-node <name> <pop> servers <n> ingress <r1> <r2> ..."
      if (tok.size() < 7 || tok[3] != "servers" || tok[5] != "ingress") {
        throw ParseError("bad cdn-node line");
      }
      CdnSpec cd;
      cd.name = tok[1];
      cd.pop = tok[2];
      cd.servers = to_number<int>(tok[4], "server count");
      cd.ingress.assign(tok.begin() + 6, tok.end());
      cdn_specs.push_back(std::move(cd));
    } else {
      throw ParseError("unknown record '" + std::string(tok[0]) + "'");
    }
  });

  // Pass 3: routers, line cards, interfaces.
  std::unordered_map<std::string_view,
                     std::unordered_map<std::string_view, InterfaceId>>
      if_by_name;  // router name -> iface name -> id
  for (const RouterSpec& s : specs) {
    RouterId rid = net.add_router(std::string(s.name), pop_ids.at(s.pop),
                                  s.role, s.loopback);
    std::map<int, LineCardId> cards;  // slot -> id, created in slot order
    auto& ifaces = if_by_name[s.name];
    for (const IfSpec& ifs : s.interfaces) {
      auto cit = cards.find(ifs.card);
      if (cit == cards.end()) {
        cit = cards.emplace(ifs.card, net.add_line_card(rid, ifs.card)).first;
      }
      ifaces[ifs.name] = net.add_interface(rid, cit->second,
                                           std::string(ifs.name), ifs.kind,
                                           ifs.address);
    }
  }

  /// The layer-1 path of an inventory circuit.
  auto circuit = [&](std::string_view ckt) {
    auto cit = circuits.find(ckt);
    if (cit == circuits.end()) {
      throw ConfigError("config: circuit " + std::string(ckt) +
                        " not in inventory");
    }
    std::vector<Layer1DeviceId> path;
    for (std::string_view dev : cit->second.path) {
      auto dit = l1_by_name.find(dev);
      if (dit == l1_by_name.end()) {
        throw ConfigError("inventory: unknown layer-1 device " +
                          std::string(dev));
      }
      path.push_back(dit->second);
    }
    return std::pair(cit->second.kind, std::move(path));
  };

  // Pass 4: logical links (create once per pair), physical circuits,
  // customers, reflectors.
  for (const RouterSpec& s : specs) {
    for (const IfSpec& ifs : s.interfaces) {
      if (ifs.kind == InterfaceKind::kBackbone) {
        if (ifs.peer_router.empty()) {
          throw ConfigError("config: backbone interface " +
                            std::string(ifs.name) + " on " +
                            std::string(s.name) + " lacks link-peer");
        }
        // Create the link from the lexicographically smaller endpoint so we
        // do it exactly once.
        if (std::tie(s.name, ifs.name) >=
            std::tie(ifs.peer_router, ifs.peer_iface)) {
          continue;
        }
        auto near = if_by_name.at(s.name).at(ifs.name);
        auto far_router = if_by_name.find(ifs.peer_router);
        if (far_router == if_by_name.end() ||
            !far_router->second.count(ifs.peer_iface)) {
          throw ConfigError("config: link-peer " +
                            std::string(ifs.peer_router) + " " +
                            std::string(ifs.peer_iface) + " not found");
        }
        auto far = far_router->second.at(ifs.peer_iface);
        LogicalLinkId link = net.add_logical_link(
            near, far, Ipv4Prefix(ifs.address, ifs.prefix_len),
            ifs.ospf_weight, ifs.bandwidth);
        for (std::string_view ckt : ifs.circuits) {
          auto [kind, path] = circuit(ckt);
          net.add_physical_link(std::string(ckt), link, kind,
                                std::move(path));
        }
      } else if (!ifs.customer.empty()) {
        InterfaceId port = if_by_name.at(s.name).at(ifs.name);
        net.add_customer_site(std::string(ifs.customer), port,
                              ifs.neighbor_ip, ifs.asn, ifs.neighbor_prefix,
                              std::string(ifs.mvpn));
        for (std::string_view ckt : ifs.circuits) {
          auto [kind, path] = circuit(ckt);
          net.add_access_circuit(std::string(ckt), port, kind,
                                 std::move(path));
        }
      }
    }
    if (!s.reflectors.empty()) {
      std::vector<RouterId> refl;
      for (std::string_view name : s.reflectors) {
        auto r = net.find_router(name);
        if (!r) {
          throw ConfigError("config: unknown reflector " + std::string(name));
        }
        refl.push_back(*r);
      }
      net.set_reflectors(*net.find_router(s.name), std::move(refl));
    }
  }

  // Pass 5: CDN nodes.
  for (const CdnSpec& cd : cdn_specs) {
    std::vector<RouterId> ingress;
    for (std::string_view r : cd.ingress) {
      auto rid = net.find_router(r);
      if (!rid) {
        throw ConfigError("inventory: unknown cdn ingress router " +
                          std::string(r));
      }
      ingress.push_back(*rid);
    }
    net.add_cdn_node(std::string(cd.name), pop_ids.at(cd.pop),
                     std::move(ingress), cd.servers);
  }

  net.validate();
  return net;
}

}  // namespace grca::topology
