// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "topology/import.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/strings.h"

namespace grca::topology {
namespace {

using util::Ipv4Addr;
using util::Ipv4Prefix;

const util::TimeZone kZones[4] = {
    util::TimeZone::us_eastern(), util::TimeZone::us_central(),
    util::TimeZone::us_mountain(), util::TimeZone::us_pacific()};

/// Sequential allocator for /30 point-to-point subnets.
class SubnetAllocator {
 public:
  explicit SubnetAllocator(std::uint32_t base) : next_(base) {}

  struct P2p {
    Ipv4Prefix subnet;
    Ipv4Addr a;
    Ipv4Addr b;
  };
  P2p next_p2p() {
    std::uint32_t net = next_;
    next_ += 4;
    return P2p{Ipv4Prefix(Ipv4Addr(net), 30), Ipv4Addr(net + 1),
               Ipv4Addr(net + 2)};
  }

 private:
  std::uint32_t next_;
};

/// Allocates interfaces on a router, opening a new line card every
/// `per_card` ports.
class PortAllocator {
 public:
  PortAllocator(Network& net, RouterId router, int per_card)
      : net_(net), router_(router), per_card_(per_card) {}

  InterfaceId add(InterfaceKind kind, Ipv4Addr addr) {
    if (!card_.valid() || used_ == per_card_) {
      card_ = net_.add_line_card(router_, slot_++);
      used_ = 0;
    }
    const char* media = kind == InterfaceKind::kBackbone ? "so" : "ge";
    char name[32];
    std::snprintf(name, sizeof name, "%s-%d/0/%d", media, slot_ - 1, used_);
    ++used_;
    return net_.add_interface(router_, card_, name, kind, addr);
  }

 private:
  Network& net_;
  RouterId router_;
  int per_card_;
  LineCardId card_;
  int slot_ = 0;
  int used_ = 0;
};

[[noreturn]] void fail(int line, const std::string& what) {
  throw ParseError("repetita import: line " + std::to_string(line) + ": " +
                   what);
}

/// Rejects NUL bytes and malformed UTF-8 sequences up front so the rest of
/// the parser only ever sees well-formed text.
void check_utf8(std::string_view text) {
  const auto* p = reinterpret_cast<const unsigned char*>(text.data());
  std::size_t n = text.size();
  std::size_t i = 0;
  while (i < n) {
    unsigned char c = p[i];
    std::size_t extra;
    if (c == 0x00) {
      throw ParseError("repetita import: NUL byte at offset " +
                       std::to_string(i));
    } else if (c < 0x80) {
      extra = 0;
    } else if ((c & 0xE0) == 0xC0 && c >= 0xC2) {
      extra = 1;
    } else if ((c & 0xF0) == 0xE0) {
      extra = 2;
    } else if ((c & 0xF8) == 0xF0 && c <= 0xF4) {
      extra = 3;
    } else {
      throw ParseError("repetita import: invalid UTF-8 byte at offset " +
                       std::to_string(i));
    }
    if (i + extra >= n && extra > 0) {
      throw ParseError("repetita import: truncated UTF-8 sequence at offset " +
                       std::to_string(i));
    }
    for (std::size_t k = 1; k <= extra; ++k) {
      if ((p[i + k] & 0xC0) != 0x80) {
        throw ParseError("repetita import: invalid UTF-8 continuation at "
                         "offset " + std::to_string(i + k));
      }
    }
    i += 1 + extra;
  }
}

struct Line {
  int number;
  std::vector<std::string> tokens;
};

/// Splits the text into whitespace-tokenized lines, dropping blanks and
/// '#' comments.
std::vector<Line> tokenize(std::string_view text) {
  std::vector<Line> out;
  int number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view raw = eol == std::string_view::npos
                               ? text.substr(pos)
                               : text.substr(pos, eol - pos);
    ++number;
    std::string_view trimmed = util::trim(raw);
    if (!trimmed.empty() && trimmed[0] != '#') {
      out.push_back(Line{number, util::split_ws(trimmed)});
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return out;
}

/// Token `i` of `ln` read wholly as a number.
template <typename T>
T number(const Line& ln, std::size_t i, const char* what) {
  try {
    return util::to_number<T>(ln.tokens[i], what);
  } catch (const ParseError& e) {
    fail(ln.number, e.what());
  }
}

/// Lowercases a graph node label into a PoP-name-safe slug.
std::string sanitize_label(const std::string& label) {
  std::string out;
  for (char c : label) {
    unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      out.push_back(static_cast<char>(std::tolower(u)));
    } else if (!out.empty() && out.back() != '-') {
      out.push_back('-');
    }
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out;
}

struct ParsedEdge {
  std::string label;
  int src = 0;
  int dest = 0;
  int weight = 0;
  double capacity_gbps = 10.0;
};

struct ParsedGraph {
  std::vector<std::string> node_labels;
  std::vector<ParsedEdge> edges;
};

ParsedGraph parse_graph(std::string_view text) {
  check_utf8(text);
  std::vector<Line> lines = tokenize(text);
  std::size_t cursor = 0;
  auto next = [&](const char* expecting) -> const Line& {
    if (cursor >= lines.size()) {
      throw ParseError(std::string("repetita import: truncated file, "
                                   "expected ") + expecting);
    }
    return lines[cursor++];
  };

  // --- NODES section -------------------------------------------------------
  const Line& nh = next("NODES header");
  if (nh.tokens.size() != 2 || nh.tokens[0] != "NODES") {
    fail(nh.number, "expected 'NODES <count>' header");
  }
  long long n = number<long long>(nh, 1, "node count");
  if (n <= 0) fail(nh.number, "empty graph: node count must be positive");

  ParsedGraph g;
  std::unordered_set<std::string> node_seen;
  for (long long i = 0; i < n; ++i) {
    const Line& ln = next("node row");
    // The optional 'label x y' column-header row is not a node.
    if (i == 0 && ln.tokens[0] == "label") {
      --i;
      continue;
    }
    const std::string& label = ln.tokens[0];
    if (!node_seen.insert(label).second) {
      fail(ln.number, "duplicate node label '" + label + "'");
    }
    g.node_labels.push_back(label);
  }

  // --- EDGES section -------------------------------------------------------
  const Line& eh = next("EDGES header");
  if (eh.tokens.size() != 2 || eh.tokens[0] != "EDGES") {
    fail(eh.number, "expected 'EDGES <count>' header");
  }
  long long m = number<long long>(eh, 1, "edge count");
  if (m <= 0) fail(eh.number, "graph has no edges");

  std::unordered_set<std::string> edge_seen;
  for (long long i = 0; i < m; ++i) {
    const Line& ln = next("edge row");
    if (i == 0 && ln.tokens[0] == "label") {
      --i;
      continue;
    }
    if (ln.tokens.size() < 4) {
      fail(ln.number, "edge row needs at least 'label src dest weight'");
    }
    ParsedEdge e;
    e.label = ln.tokens[0];
    if (!edge_seen.insert(e.label).second) {
      fail(ln.number, "duplicate edge label '" + e.label + "'");
    }
    long long src = number<long long>(ln, 1, "edge source");
    long long dest = number<long long>(ln, 2, "edge destination");
    if (src < 0 || src >= n || dest < 0 || dest >= n) {
      fail(ln.number, "edge endpoint out of range [0, " + std::to_string(n) +
                          ")");
    }
    if (src == dest) {
      fail(ln.number, "self-loop edge on node " + std::to_string(src));
    }
    e.src = static_cast<int>(src);
    e.dest = static_cast<int>(dest);
    long long w = number<long long>(ln, 3, "edge weight");
    if (w <= 0) fail(ln.number, "edge weight must be positive");
    e.weight = static_cast<int>(std::min<long long>(w, 1 << 20));
    if (ln.tokens.size() >= 5) {
      double bw_kbps = number<double>(ln, 4, "edge bandwidth");
      if (bw_kbps < 0) fail(ln.number, "edge bandwidth must be non-negative");
      if (bw_kbps > 0) e.capacity_gbps = bw_kbps / 1e6;
    }
    g.edges.push_back(std::move(e));
  }
  return g;
}

}  // namespace

Network import_repetita(std::string_view text, const ImportOptions& options,
                        ImportStats* stats) {
  if (options.pers_per_pop < 1 || options.interfaces_per_card < 1 ||
      options.customers_per_per < 0 || options.cdn_nodes < 0) {
    throw ConfigError("import_repetita: degenerate options");
  }
  ParsedGraph g = parse_graph(text);
  const int n = static_cast<int>(g.node_labels.size());

  util::Rng rng(options.seed);
  Network net;
  SubnetAllocator backbone_nets(Ipv4Addr::parse("10.0.0.0").value());
  SubnetAllocator customer_nets(Ipv4Addr::parse("172.16.0.0").value());
  std::uint32_t next_loopback = Ipv4Addr::parse("10.255.0.1").value();
  std::uint32_t next_customer_prefix = Ipv4Addr::parse("96.0.0.0").value();
  std::uint32_t next_asn = 65001;

  // --- PoPs: one per graph node, one core router each ----------------------
  std::vector<std::string> pop_names;
  std::unordered_set<std::string> name_seen;
  for (int i = 0; i < n; ++i) {
    std::string base = sanitize_label(g.node_labels[i]);
    if (base.empty()) base = "n" + std::to_string(i);
    std::string name = base;
    if (!name_seen.insert(name).second) {
      name = base + "-" + std::to_string(i);
      name_seen.insert(name);
    }
    pop_names.push_back(name);
  }

  std::vector<PopId> pops;
  std::vector<RouterId> cores;
  std::vector<std::vector<RouterId>> pers(n);
  std::vector<Layer1DeviceId> pop_sonet(n), pop_oxc(n);
  std::vector<std::unique_ptr<PortAllocator>> ports;  // indexed by RouterId

  auto new_router = [&](const std::string& name, PopId pop, RouterRole role) {
    RouterId id = net.add_router(name, pop, role, Ipv4Addr(next_loopback++));
    ports.push_back(std::make_unique<PortAllocator>(
        net, id, options.interfaces_per_card));
    return id;
  };
  auto connect = [&](RouterId a, RouterId b, int weight, double cap) {
    auto p2p = backbone_nets.next_p2p();
    InterfaceId ia = ports[a.value()]->add(InterfaceKind::kBackbone, p2p.a);
    InterfaceId ib = ports[b.value()]->add(InterfaceKind::kBackbone, p2p.b);
    return net.add_logical_link(ia, ib, p2p.subnet, weight, cap);
  };

  for (int i = 0; i < n; ++i) {
    PopId pop = net.add_pop(pop_names[i], kZones[i % 4]);
    pops.push_back(pop);
    cores.push_back(
        new_router(pop_names[i] + "-cr1", pop, RouterRole::kCore));
    pop_sonet[i] = net.add_layer1_device(pop_names[i] + "-adm1",
                                         Layer1Kind::kSonetRing, pop);
    pop_oxc[i] = net.add_layer1_device(pop_names[i] + "-oxc1",
                                       Layer1Kind::kOpticalMesh, pop);
    for (int k = 0; k < options.pers_per_pop; ++k) {
      pers[i].push_back(new_router(
          pop_names[i] + "-er" + std::to_string(k + 1), pop,
          RouterRole::kProviderEdge));
    }
  }

  int circuit_seq = 1;
  auto add_circuit = [&](LogicalLinkId link, int pa, int pb) {
    char ckt[96];
    bool intra = pa == pb;
    Layer1Kind kind = intra ? Layer1Kind::kSonetRing : Layer1Kind::kOpticalMesh;
    std::vector<Layer1DeviceId> path =
        intra ? std::vector<Layer1DeviceId>{pop_sonet[pa]}
              : std::vector<Layer1DeviceId>{pop_oxc[pa], pop_oxc[pb]};
    std::snprintf(ckt, sizeof ckt, "CKT.%s.%s.%05d", pop_names[pa].c_str(),
                  pop_names[pb].c_str(), circuit_seq++);
    net.add_physical_link(ckt, link, kind, path);
  };

  // --- Backbone fibers -----------------------------------------------------
  // Group directed edge rows by unordered node pair, in first-appearance
  // order. A pair's two directions make one fiber; each further row pair is
  // an extra parallel fiber through the same cross-connects (the SRLG).
  std::vector<std::uint64_t> pair_order;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> pair_rows;
  for (std::size_t r = 0; r < g.edges.size(); ++r) {
    int a = std::min(g.edges[r].src, g.edges[r].dest);
    int b = std::max(g.edges[r].src, g.edges[r].dest);
    std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) |
                        static_cast<std::uint64_t>(b);
    auto [it, fresh] = pair_rows.try_emplace(key);
    if (fresh) pair_order.push_back(key);
    it->second.push_back(r);
  }

  std::size_t fibers = 0, parallel_groups = 0;
  std::vector<std::size_t> degree(n, 0);
  for (std::uint64_t key : pair_order) {
    int a = static_cast<int>(key >> 32);
    int b = static_cast<int>(key & 0xFFFFFFFFu);
    const std::vector<std::size_t>& rows = pair_rows[key];
    std::size_t count = (rows.size() + 1) / 2;
    if (count >= 2) ++parallel_groups;
    for (std::size_t f = 0; f < count; ++f) {
      const ParsedEdge& e = g.edges[rows[2 * f]];
      add_circuit(connect(cores[a], cores[b], e.weight, e.capacity_gbps), a,
                  b);
      ++fibers;
    }
    degree[a] += count;
    degree[b] += count;
  }

  // --- Route reflectors ----------------------------------------------------
  RouterId rr1 = new_router(pop_names[0] + "-rr1", pops[0],
                            RouterRole::kRouteReflector);
  RouterId rr2 = new_router(pop_names[1 % n] + "-rr2", pops[1 % n],
                            RouterRole::kRouteReflector);
  add_circuit(connect(rr1, cores[0], 10, 10.0), 0, 0);
  add_circuit(connect(rr2, cores[1 % n], 10, 10.0), 1 % n, 1 % n);

  // --- PER uplinks and customers -------------------------------------------
  int site_seq = 1;
  std::vector<CustomerSiteId> plain_sites;
  for (int p = 0; p < n; ++p) {
    for (RouterId per : pers[p]) {
      add_circuit(connect(per, cores[p], 10, 10.0), p, p);
      net.set_reflectors(per, {rr1, rr2});
      for (int c = 0; c < options.customers_per_per; ++c) {
        auto p2p = customer_nets.next_p2p();
        InterfaceId port =
            ports[per.value()]->add(InterfaceKind::kCustomerFacing, p2p.a);
        char name[48];
        std::snprintf(name, sizeof name, "cust-%05d", site_seq++);
        Ipv4Prefix announced(Ipv4Addr(next_customer_prefix), 24);
        next_customer_prefix += 256;
        plain_sites.push_back(
            net.add_customer_site(name, port, p2p.b, next_asn++, announced));
        if (rng.chance(0.5)) {
          char ckt[96];
          std::snprintf(ckt, sizeof ckt, "CKT.%s.ACC.%05d",
                        pop_names[p].c_str(), circuit_seq++);
          if (rng.chance(0.6)) {
            net.add_access_circuit(ckt, port, Layer1Kind::kSonetRing,
                                   {pop_sonet[p]});
          } else {
            net.add_access_circuit(ckt, port, Layer1Kind::kOpticalMesh,
                                   {pop_oxc[p]});
          }
        }
      }
    }
  }

  // --- MVPN membership -----------------------------------------------------
  std::vector<CustomerSiteId> shuffled = plain_sites;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }
  std::size_t cursor = 0;
  for (int v = 0; v < options.mvpn_count; ++v) {
    std::string vpn = "mvpn-" + std::to_string(v + 1);
    for (int s = 0; s < options.mvpn_sites_per_vpn && cursor < shuffled.size();
         ++s) {
      net.set_mvpn(shuffled[cursor++], vpn);
    }
  }

  // --- CDN nodes at the highest-degree PoPs --------------------------------
  std::vector<int> by_degree(n);
  for (int i = 0; i < n; ++i) by_degree[i] = i;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](int a, int b) { return degree[a] > degree[b]; });
  for (int c = 0; c < options.cdn_nodes && c < n; ++c) {
    int p = by_degree[c];
    std::vector<RouterId> ingress = {pers[p][0]};
    if (pers[p].size() > 1) ingress.push_back(pers[p][1]);
    net.add_cdn_node("cdn-" + pop_names[p], pops[p], ingress, 20);
  }

  net.validate();
  if (stats) {
    stats->graph_nodes = static_cast<std::size_t>(n);
    stats->graph_edges = g.edges.size();
    stats->backbone_links = fibers;
    stats->parallel_groups = parallel_groups;
  }
  return net;
}

Network import_repetita_file(const std::string& path,
                             const ImportOptions& options, ImportStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("repetita import: cannot read file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  try {
    return import_repetita(text, options, stats);
  } catch (const ParseError& e) {
    throw ParseError(path + ": " + e.what());
  }
}

}  // namespace grca::topology
