// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the routing substrate: prefix trie LPM, the SPF queue, OSPF SPF
// over time-versioned weights (incl. ECMP), and BGP best-path emulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <thread>

#include "routing/bgp.h"
#include "routing/ospf.h"
#include "routing/prefix_trie.h"
#include "routing/radix_heap.h"
#include "topology/topo_gen.h"
#include "util/rng.h"

namespace grca::routing {
namespace {

using topology::InterfaceKind;
using topology::LogicalLinkId;
using topology::Network;
using topology::PopId;
using topology::RouterId;
using topology::RouterRole;
using util::Ipv4Addr;
using util::Ipv4Prefix;

// ---- PrefixTrie --------------------------------------------------------

TEST(PrefixTrie, LongestPrefixWins) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(Ipv4Prefix::parse("10.1.0.0/16"), 16);
  trie.insert(Ipv4Prefix::parse("10.1.2.0/24"), 24);
  auto m = trie.lookup(Ipv4Addr::parse("10.1.2.3"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m->value, 24);
  m = trie.lookup(Ipv4Addr::parse("10.1.9.9"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m->value, 16);
  m = trie.lookup(Ipv4Addr::parse("10.9.9.9"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m->value, 8);
  EXPECT_FALSE(trie.lookup(Ipv4Addr::parse("11.0.0.1")).has_value());
}

TEST(PrefixTrie, DefaultRouteMatchesEverything) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::parse("0.0.0.0/0"), 0);
  EXPECT_TRUE(trie.lookup(Ipv4Addr::parse("203.0.113.7")).has_value());
}

TEST(PrefixTrie, InsertOverwrites) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::parse("10.0.0.0/8"), 1);
  trie.insert(Ipv4Prefix::parse("10.0.0.0/8"), 2);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(*trie.lookup(Ipv4Addr::parse("10.0.0.1"))->value, 2);
}

TEST(PrefixTrie, EraseRestoresShorterMatch) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(Ipv4Prefix::parse("10.1.0.0/16"), 16);
  EXPECT_TRUE(trie.erase(Ipv4Prefix::parse("10.1.0.0/16")));
  EXPECT_EQ(*trie.lookup(Ipv4Addr::parse("10.1.2.3"))->value, 8);
  EXPECT_FALSE(trie.erase(Ipv4Prefix::parse("10.1.0.0/16")));
}

TEST(PrefixTrie, HostRoute) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::parse("192.0.2.1/32"), 32);
  EXPECT_TRUE(trie.lookup(Ipv4Addr::parse("192.0.2.1")).has_value());
  EXPECT_FALSE(trie.lookup(Ipv4Addr::parse("192.0.2.2")).has_value());
}

TEST(PrefixTrie, ForEachVisitsAll) {
  PrefixTrie<int> trie;
  std::set<std::string> want = {"10.0.0.0/8", "10.1.0.0/16", "192.0.2.0/24"};
  for (const auto& p : want) trie.insert(Ipv4Prefix::parse(p), 1);
  std::set<std::string> got;
  trie.for_each([&](Ipv4Prefix p, int) { got.insert(p.to_string()); });
  EXPECT_EQ(got, want);
}

// Property: trie LPM agrees with a brute-force scan over random prefixes.
class TrieLpmProperty : public ::testing::TestWithParam<int> {};

TEST_P(TrieLpmProperty, MatchesBruteForce) {
  util::Rng rng(GetParam());
  PrefixTrie<std::size_t> trie;
  std::vector<Ipv4Prefix> prefixes;
  for (int i = 0; i < 100; ++i) {
    int len = static_cast<int>(rng.range(4, 28));
    Ipv4Prefix p(Ipv4Addr(static_cast<std::uint32_t>(rng.next())), len);
    trie.insert(p, prefixes.size());
    prefixes.push_back(p);
  }
  for (int i = 0; i < 500; ++i) {
    Ipv4Addr addr(static_cast<std::uint32_t>(rng.next()));
    int best_len = -1;
    for (const auto& p : prefixes) {
      if (p.contains(addr) && p.length() > best_len) best_len = p.length();
    }
    auto m = trie.lookup(addr);
    if (best_len < 0) {
      EXPECT_FALSE(m.has_value());
    } else {
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->prefix.length(), best_len);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieLpmProperty, ::testing::Values(1, 2, 3));

// ---- RadixHeap -------------------------------------------------------------

// Dijkstra's pattern: pop the smallest key, then push keys at or above it.
// Every pop must return the smallest key still queued, with pushed keys
// differing from the last pop in every bit position up to 2^31 (a queue
// that misorders pops still gives Dijkstra the right distances, only later,
// so the SPF reference tests cannot see it).
TEST(RadixHeap, PopsTheSmallestKeyAtEveryBitWidth) {
  util::Rng rng(41);
  RadixHeap heap;
  for (int round = 0; round < 4; ++round) {
    heap.clear();
    std::multiset<std::uint32_t> queued;
    std::uint32_t last = 0;
    for (int step = 0; step < 3000; ++step) {
      for (int k = static_cast<int>(rng.range(0, 3)); k > 0; --k) {
        const auto width = static_cast<std::uint32_t>(rng.below(32));
        const std::uint32_t room = (1u << 31) - last;
        const auto delta = static_cast<std::uint32_t>(
            rng.below(std::min<std::uint64_t>(room, 1ull << width)));
        heap.push(last + delta, static_cast<std::uint32_t>(step));
        queued.insert(last + delta);
      }
      ASSERT_EQ(heap.size(), queued.size());
      if (heap.empty()) continue;
      last = heap.pop().first;
      ASSERT_EQ(last, *queued.begin()) << "round " << round << " step " << step;
      queued.erase(queued.begin());
    }
  }
}

// ---- OSPF ------------------------------------------------------------------

/// Adds a backbone link of weight `w` between x and y, each end on a line
/// card of its own, numbered from `subnet` (advanced past the /30).
LogicalLinkId connect(Network& net, RouterId x, RouterId y, int w,
                      std::uint32_t& subnet) {
  auto cx = net.add_line_card(x, net.router(x).line_cards.size());
  auto cy = net.add_line_card(y, net.router(y).line_cards.size());
  auto ix = net.add_interface(x, cx, "so-" + std::to_string(subnet) + "/a",
                              InterfaceKind::kBackbone, Ipv4Addr(subnet + 1));
  auto iy = net.add_interface(y, cy, "so-" + std::to_string(subnet) + "/b",
                              InterfaceKind::kBackbone, Ipv4Addr(subnet + 2));
  auto l = net.add_logical_link(ix, iy, Ipv4Prefix(Ipv4Addr(subnet), 30), w,
                                10.0);
  subnet += 4;
  return l;
}

/// Diamond: a -(1)- b -(1)- d, a -(1)- c -(1)- d, plus slow path a -(10)- d.
struct Diamond {
  Network net;
  RouterId a, b, c, d;
  LogicalLinkId ab, ac, bd, cd, ad;

  Diamond() {
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
    ab = connect(net, a, b, 1, subnet);
    ac = connect(net, a, c, 1, subnet);
    bd = connect(net, b, d, 1, subnet);
    cd = connect(net, c, d, 1, subnet);
    ad = connect(net, a, d, 10, subnet);
  }
};

TEST(Ospf, ShortestDistance) {
  Diamond g;
  OspfSim ospf(g.net);
  EXPECT_EQ(ospf.distance(g.a, g.d, 0), 2);
  EXPECT_EQ(ospf.distance(g.a, g.a, 0), 0);
}

TEST(Ospf, EcmpRoutersIncludeBothBranches) {
  Diamond g;
  OspfSim ospf(g.net);
  auto routers = ospf.routers_on_paths(g.a, g.d, 0);
  // a, b, c, d all on some equal-cost path.
  EXPECT_EQ(routers.size(), 4u);
}

TEST(Ospf, EcmpLinks) {
  Diamond g;
  OspfSim ospf(g.net);
  auto links = ospf.links_on_paths(g.a, g.d, 0);
  std::set<LogicalLinkId> got(links.begin(), links.end());
  EXPECT_EQ(got, (std::set<LogicalLinkId>{g.ab, g.ac, g.bd, g.cd}));
}

TEST(Ospf, WeightChangeRedirectsPath) {
  Diamond g;
  OspfSim ospf(g.net);
  // At t=100, b-d link degrades to weight 10: only the a-c-d path remains.
  ospf.set_weight(g.bd, 100, 10);
  auto before = ospf.links_on_paths(g.a, g.d, 99);
  auto after = ospf.links_on_paths(g.a, g.d, 100);
  EXPECT_EQ(before.size(), 4u);
  std::set<LogicalLinkId> got(after.begin(), after.end());
  EXPECT_EQ(got, (std::set<LogicalLinkId>{g.ac, g.cd}));
  // History is preserved: asking about t=50 still sees the old state.
  EXPECT_EQ(ospf.links_on_paths(g.a, g.d, 50).size(), 4u);
}

TEST(Ospf, LinkDownFallsBackToSlowPath) {
  Diamond g;
  OspfSim ospf(g.net);
  ospf.set_weight(g.ab, 10, kDown);
  ospf.set_weight(g.ac, 20, kDown);
  EXPECT_EQ(ospf.distance(g.a, g.d, 5), 2);
  EXPECT_EQ(ospf.distance(g.a, g.d, 15), 2);   // via c
  EXPECT_EQ(ospf.distance(g.a, g.d, 25), 10);  // direct slow link
}

TEST(Ospf, CostedOutBehavesLikeDownForPaths) {
  Diamond g;
  OspfSim ospf(g.net);
  ospf.set_weight(g.bd, 100, kCostedOut);
  auto links = ospf.links_on_paths(g.a, g.d, 200);
  std::set<LogicalLinkId> got(links.begin(), links.end());
  EXPECT_EQ(got, (std::set<LogicalLinkId>{g.ac, g.cd}));
  EXPECT_FALSE(ospf.usable_at(g.bd, 200));
  EXPECT_TRUE(ospf.usable_at(g.bd, 99));
}

TEST(Ospf, UnreachableReturnsEmpty) {
  Diamond g;
  OspfSim ospf(g.net);
  ospf.set_weight(g.ab, 10, kDown);
  ospf.set_weight(g.ac, 10, kDown);
  ospf.set_weight(g.ad, 10, kDown);
  EXPECT_FALSE(ospf.distance(g.a, g.d, 20).has_value());
  EXPECT_TRUE(ospf.routers_on_paths(g.a, g.d, 20).empty());
}

TEST(Ospf, RejectsOutOfOrderChanges) {
  Diamond g;
  OspfSim ospf(g.net);
  ospf.set_weight(g.ab, 100, 5);
  EXPECT_THROW(ospf.set_weight(g.ab, 50, 7), ConfigError);
}

TEST(Ospf, RejectsBogusWeight) {
  Diamond g;
  OspfSim ospf(g.net);
  EXPECT_THROW(ospf.set_weight(g.ab, 0, 0), ConfigError);
  EXPECT_THROW(ospf.set_weight(g.ab, 0, -7), ConfigError);
}

TEST(Ospf, ChangeLogRecordsTransitions) {
  Diamond g;
  OspfSim ospf(g.net);
  ospf.set_weight(g.ab, 100, kDown);
  ospf.set_weight(g.ab, 160, 1);
  ASSERT_EQ(ospf.change_log().size(), 2u);
  EXPECT_EQ(ospf.change_log()[0].old_weight, 1);
  EXPECT_EQ(ospf.change_log()[0].new_weight, kDown);
  EXPECT_EQ(ospf.change_log()[1].old_weight, kDown);
  EXPECT_EQ(ospf.change_log()[1].new_weight, 1);
}

TEST(Ospf, CacheMatchesUncachedResults) {
  // The SPF memoization must be semantically invisible.
  Network net = topology::generate_isp(topology::TopoParams{});
  OspfSim ospf(net);
  util::Rng rng(17);
  // A few weight changes to create multiple epochs.
  for (int i = 0; i < 10; ++i) {
    LogicalLinkId link(static_cast<std::uint32_t>(rng.below(net.links().size())));
    int w = ospf.weight_at(link, 1000 * (i + 1));
    if (w == kDown || w == kCostedOut) continue;
    ospf.set_weight(link, 1000 * (i + 1), w + 3);
  }
  for (int i = 0; i < 30; ++i) {
    RouterId a(static_cast<std::uint32_t>(rng.below(net.routers().size())));
    RouterId b(static_cast<std::uint32_t>(rng.below(net.routers().size())));
    util::TimeSec t = rng.range(0, 12000);
    ospf.set_cache_enabled(true);
    auto cached_dist = ospf.distance(a, b, t);
    auto cached_links = ospf.links_on_paths(a, b, t);
    ospf.set_cache_enabled(false);
    EXPECT_EQ(ospf.distance(a, b, t), cached_dist);
    EXPECT_EQ(ospf.links_on_paths(a, b, t), cached_links);
    ospf.set_cache_enabled(true);
  }
}

TEST(Ospf, CacheInvalidatedBySetWeight) {
  Diamond g;
  OspfSim ospf(g.net);
  EXPECT_EQ(ospf.distance(g.a, g.d, 50), 2);  // populate the cache
  ospf.set_weight(g.bd, 10, kDown);
  ospf.set_weight(g.cd, 10, kDown);
  // Same query time, new topology history: must reflect the change.
  EXPECT_EQ(ospf.distance(g.a, g.d, 50), 10);
}

TEST(Ospf, GeneratedIspAllPairsReachable) {
  Network net = topology::generate_isp(topology::TopoParams{});
  OspfSim ospf(net);
  // Sample a handful of router pairs; the generated backbone is connected.
  util::Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    RouterId a(static_cast<std::uint32_t>(rng.below(net.routers().size())));
    RouterId b(static_cast<std::uint32_t>(rng.below(net.routers().size())));
    EXPECT_TRUE(ospf.distance(a, b, 0).has_value());
  }
}

// ---- OSPF against a reference ---------------------------------------------

/// Each link's weight at `t`, replayed from the network's initial weights
/// and change_log() rather than read through OspfSim's own history lookup.
std::vector<int> reference_weights(const Network& net, const OspfSim& ospf,
                                   util::TimeSec t) {
  std::vector<int> w;
  for (const topology::LogicalLink& l : net.links()) w.push_back(l.ospf_weight);
  for (const WeightChange& c : ospf.change_log()) {
    if (c.time <= t) w[c.link.value()] = c.new_weight;
  }
  return w;
}

constexpr long kRefInf = std::numeric_limits<long>::max() / 4;

bool ref_usable(int w) { return w != kDown && w != kCostedOut; }

/// Naive Bellman-Ford over the undirected edge list.
std::vector<long> bellman_ford(const Network& net, const std::vector<int>& w,
                               RouterId src) {
  std::vector<long> dist(net.routers().size(), kRefInf);
  dist[src.value()] = 0;
  for (bool changed = true; changed;) {
    changed = false;
    for (const topology::LogicalLink& l : net.links()) {
      if (!ref_usable(w[l.id.value()])) continue;
      std::uint32_t a = net.interface(l.side_a).router.value();
      std::uint32_t b = net.interface(l.side_b).router.value();
      for (auto [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
        if (dist[x] != kRefInf && dist[x] + w[l.id.value()] < dist[y]) {
          dist[y] = dist[x] + w[l.id.value()];
          changed = true;
        }
      }
    }
  }
  return dist;
}

/// Checks distance(), routers_on_paths() and links_on_paths() for one
/// query against the reference: a router lies on a shortest path when its
/// distances from src and to dst sum to the total, and a link when one of
/// its directions does.
void expect_matches_reference(const Network& net, const OspfSim& ospf,
                              RouterId src, RouterId dst, util::TimeSec t) {
  SCOPED_TRACE("src " + std::to_string(src.value()) + " dst " +
               std::to_string(dst.value()) + " t " + std::to_string(t));
  std::vector<int> w = reference_weights(net, ospf, t);
  std::vector<long> from_src = bellman_ford(net, w, src);
  std::vector<long> to_dst = bellman_ford(net, w, dst);
  long total = from_src[dst.value()];
  std::vector<RouterId> routers;
  std::vector<LogicalLinkId> links;
  if (total != kRefInf) {
    for (const topology::Router& r : net.routers()) {
      if (from_src[r.id.value()] + to_dst[r.id.value()] == total) {
        routers.push_back(r.id);
      }
    }
    for (const topology::LogicalLink& l : net.links()) {
      int wl = w[l.id.value()];
      if (!ref_usable(wl)) continue;
      std::uint32_t a = net.interface(l.side_a).router.value();
      std::uint32_t b = net.interface(l.side_b).router.value();
      if (from_src[a] + wl + to_dst[b] == total ||
          from_src[b] + wl + to_dst[a] == total) {
        links.push_back(l.id);
      }
    }
  }
  std::optional<int> want_dist;
  if (total != kRefInf) want_dist = static_cast<int>(total);
  EXPECT_EQ(ospf.distance(src, dst, t), want_dist);
  EXPECT_EQ(ospf.routers_on_paths(src, dst, t), routers);
  EXPECT_EQ(ospf.links_on_paths(src, dst, t), links);
}

/// Applies `count` random weight changes at non-decreasing instants (some
/// shared by several links), mixing new positive weights with kDown and
/// kCostedOut. Returns the query times: before every change, and one
/// second before, at and after each change instant.
std::vector<util::TimeSec> random_weight_changes(util::Rng& rng,
                                                 OspfSim& ospf, int count,
                                                 int max_weight) {
  const std::size_t links = ospf.network().links().size();
  std::vector<util::TimeSec> times = {-1000};
  util::TimeSec t = 100;
  for (int i = 0; i < count; ++i) {
    t += 50 * rng.range(0, 2);
    int w = static_cast<int>(rng.range(1, max_weight));
    switch (rng.below(4)) {
      case 0: w = kDown; break;
      case 1: w = kCostedOut; break;
      default: break;
    }
    ospf.set_weight(LogicalLinkId(static_cast<std::uint32_t>(rng.below(links))),
                    t, w);
    for (util::TimeSec q : {t - 1, t, t + 1}) times.push_back(q);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

/// Small seeded graphs with parallel links and weights in {1, 2, 3}, so
/// equal-cost ties are common; some routers may stay unreachable.
class SpfReferenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpfReferenceProperty, MatchesBellmanFordOverEveryPair) {
  util::Rng rng(GetParam());
  Network net;
  PopId pop = net.add_pop("pop", util::TimeZone::utc());
  const int n = static_cast<int>(rng.range(3, 10));
  for (int i = 0; i < n; ++i) {
    net.add_router("r" + std::to_string(i), pop, RouterRole::kCore,
                   Ipv4Addr(0x0AFF0000u + i));
  }
  std::uint32_t subnet = 0x0A000000;
  const int m = static_cast<int>(rng.range(n - 1, 2 * n + 2));
  for (int i = 0; i < m; ++i) {
    auto x = static_cast<std::uint32_t>(rng.below(n));
    auto y = static_cast<std::uint32_t>(rng.below(n - 1));
    if (y >= x) ++y;
    if (i % 5 == 0 && i > 0) {  // a parallel link beside the previous one
      const topology::LogicalLink& prev = net.links().back();
      x = net.interface(prev.side_a).router.value();
      y = net.interface(prev.side_b).router.value();
    }
    connect(net, RouterId(x), RouterId(y), static_cast<int>(rng.range(1, 3)),
            subnet);
  }
  OspfSim ospf(net);
  std::vector<util::TimeSec> times =
      random_weight_changes(rng, ospf, static_cast<int>(rng.range(1, 8)), 3);
  for (bool cached : {true, false}) {
    ospf.set_cache_enabled(cached);
    for (util::TimeSec t : times) {
      for (const topology::Router& s : net.routers()) {
        for (const topology::Router& d : net.routers()) {
          expect_matches_reference(net, ospf, s.id, d.id, t);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpfReferenceProperty,
                         ::testing::Range(1, 13));

/// Long chains of heavy links (weights 1..65,534) plus random chords:
/// distances pass 2^16, so the Dijkstra queue's keys differ from each
/// other in high bits as well as low ones.
class HeavySpfReferenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(HeavySpfReferenceProperty, MatchesBellmanFordOnLongChains) {
  util::Rng rng(GetParam());
  Network net;
  PopId pop = net.add_pop("pop", util::TimeZone::utc());
  const int n = static_cast<int>(rng.range(24, 40));
  for (int i = 0; i < n; ++i) {
    net.add_router("r" + std::to_string(i), pop, RouterRole::kCore,
                   Ipv4Addr(0x0AFF0000u + i));
  }
  constexpr int kMaxWeight = kCostedOut - 1;
  std::uint32_t subnet = 0x0A000000;
  for (int i = 0; i + 1 < n; ++i) {
    connect(net, RouterId(static_cast<std::uint32_t>(i)),
            RouterId(static_cast<std::uint32_t>(i + 1)),
            static_cast<int>(rng.range(1, kMaxWeight)), subnet);
  }
  const int chords = static_cast<int>(rng.range(n / 4, n / 2));
  for (int i = 0; i < chords; ++i) {
    auto x = static_cast<std::uint32_t>(rng.below(n));
    auto y = static_cast<std::uint32_t>(rng.below(n - 1));
    if (y >= x) ++y;
    connect(net, RouterId(x), RouterId(y),
            static_cast<int>(rng.range(1, kMaxWeight)), subnet);
  }
  OspfSim ospf(net);
  int farthest = 0;
  for (const topology::Router& r : net.routers()) {
    farthest = std::max(farthest,
                        ospf.distance(RouterId(0), r.id, -1000).value());
  }
  EXPECT_GT(farthest, 1 << 16);
  std::vector<util::TimeSec> times =
      random_weight_changes(rng, ospf, static_cast<int>(rng.range(2, 6)),
                            kMaxWeight);
  const std::size_t routers = net.routers().size();
  for (bool cached : {true, false}) {
    ospf.set_cache_enabled(cached);
    for (util::TimeSec t : times) {
      for (int i = 0; i < 12; ++i) {
        RouterId src(static_cast<std::uint32_t>(rng.below(routers)));
        RouterId dst(static_cast<std::uint32_t>(rng.below(routers)));
        expect_matches_reference(net, ospf, src, dst, t);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeavySpfReferenceProperty,
                         ::testing::Range(1, 7));

// One link of the diamond goes positive -> costed out -> down -> positive.
// Path walks find ECMP predecessors from the memo's distances and the
// weights at the query time, so queries at two instants of one epoch, and
// one second before, at and after each change, must see that epoch's
// weights — whether the memo was filled by an earlier query or not.
TEST(Ospf, PathsReadTheQueryEpochsWeights) {
  Diamond g;
  OspfSim ospf(g.net);
  ospf.set_weight(g.bd, 100, kCostedOut);
  ospf.set_weight(g.bd, 200, kDown);
  ospf.set_weight(g.bd, 300, 1);
  const std::vector<RouterId> all = {g.a, g.b, g.c, g.d};
  const std::vector<RouterId> via_c = {g.a, g.c, g.d};
  const std::vector<LogicalLinkId> ecmp = {g.ab, g.ac, g.bd, g.cd};
  const std::vector<LogicalLinkId> c_only = {g.ac, g.cd};
  const std::vector<util::TimeSec> times = {50,  80,  99,  100, 101, 120, 180,
                                            199, 200, 201, 299, 300, 301, 400};
  for (bool cached : {true, false}) {
    ospf.set_cache_enabled(cached);
    for (util::TimeSec t : times) {
      SCOPED_TRACE("t " + std::to_string(t) + (cached ? " cached" : ""));
      const bool bd_up = t < 100 || t >= 300;
      EXPECT_EQ(ospf.distance(g.a, g.d, t), 2);
      EXPECT_EQ(ospf.routers_on_paths(g.a, g.d, t), bd_up ? all : via_c);
      EXPECT_EQ(ospf.links_on_paths(g.a, g.d, t), bd_up ? ecmp : c_only);
      EXPECT_EQ(ospf.distance(g.b, g.d, t), bd_up ? 1 : 3);
      for (RouterId s : all) {
        for (RouterId d : all) expect_matches_reference(g.net, ospf, s, d, t);
      }
    }
  }
}

// Every query is one memo lookup; only misses (or every lookup, with the
// memo off) run Dijkstra.
TEST(Ospf, SpfStatsCountLookupsAndRuns) {
  Diamond g;
  OspfSim ospf(g.net);
  ospf.set_weight(g.bd, 100, 5);
  ospf.distance(g.a, g.d, 10);
  ospf.links_on_paths(g.a, g.b, 20);        // same source and epoch: a hit
  ospf.routers_on_paths(g.a, g.d, 150);     // next epoch: a miss
  ospf.distance(g.b, g.d, 150);             // other source: a miss
  EXPECT_EQ(ospf.spf_stats().lookups, 4u);
  EXPECT_EQ(ospf.spf_stats().runs, 3u);
  ospf.set_cache_enabled(false);
  ospf.distance(g.a, g.d, 10);
  ospf.distance(g.a, g.d, 10);
  EXPECT_EQ(ospf.spf_stats().lookups, 6u);
  EXPECT_EQ(ospf.spf_stats().runs, 5u);
}

TEST(Ospf, GeneratedIspMatchesBellmanFord) {
  Network net = topology::generate_isp(topology::TopoParams{});
  OspfSim ospf(net);
  util::Rng rng(23);
  std::vector<util::TimeSec> times = random_weight_changes(rng, ospf, 12, 20);
  const std::size_t n = net.routers().size();
  for (bool cached : {true, false}) {
    ospf.set_cache_enabled(cached);
    for (util::TimeSec t : times) {
      for (int i = 0; i < 6; ++i) {
        RouterId src(static_cast<std::uint32_t>(rng.below(n)));
        RouterId dst(static_cast<std::uint32_t>(rng.below(n)));
        expect_matches_reference(net, ospf, src, dst, t);
      }
    }
  }
}

// Eight threads share one cold SPF memo, asking overlapping questions in
// different orders: every answer must equal the serial one. Under
// GRCA_SANITIZE=thread this is the race gate for the memo.
TEST(Ospf, ConcurrentQueriesMatchSerial) {
  Network net = topology::generate_isp(topology::TopoParams{});
  util::Rng rng(31);
  OspfSim ospf(net);
  std::vector<util::TimeSec> times = random_weight_changes(rng, ospf, 6, 20);
  struct Query {
    RouterId src, dst;
    util::TimeSec t;
  };
  struct Answer {
    std::optional<int> dist;
    std::vector<RouterId> routers;
    std::vector<LogicalLinkId> links;
    bool operator==(const Answer&) const = default;
  };
  // Few sources and times, so threads collide on the same memo keys.
  std::vector<Query> queries;
  const std::size_t n = net.routers().size();
  for (int i = 0; i < 96; ++i) {
    queries.push_back(
        {RouterId(static_cast<std::uint32_t>(rng.below(6))),
         RouterId(static_cast<std::uint32_t>(rng.below(n))),
         times[rng.below(times.size())]});
  }
  auto answer = [&ospf](const Query& q) {
    return Answer{ospf.distance(q.src, q.dst, q.t),
                  ospf.routers_on_paths(q.src, q.dst, q.t),
                  ospf.links_on_paths(q.src, q.dst, q.t)};
  };
  std::vector<Answer> want;
  for (const Query& q : queries) want.push_back(answer(q));
  ospf.set_cache_enabled(true);  // empties the memo: the threads start cold

  constexpr int kThreads = 8;
  std::vector<std::vector<Answer>> got(kThreads,
                                       std::vector<Answer>(queries.size()));
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      for (std::size_t j = 0; j < queries.size(); ++j) {
        std::size_t i = (j + static_cast<std::size_t>(k) * 13) % queries.size();
        got[k][i] = answer(queries[i]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int k = 0; k < kThreads; ++k) EXPECT_EQ(got[k], want) << "thread " << k;
}

// ---- BGP ---------------------------------------------------------------

/// Two egress routers for the same prefix over the diamond topology:
/// egress b (near) and egress d (far from a).
struct BgpFixture {
  Diamond g;
  OspfSim ospf;
  BgpSim bgp;
  Ipv4Prefix dst = Ipv4Prefix::parse("96.0.1.0/24");

  BgpFixture() : ospf(g.net), bgp(ospf) {}

  BgpRoute route(RouterId egress, int lp = 100, int aspath = 2, int med = 0) {
    BgpRoute r;
    r.prefix = dst;
    r.egress = egress;
    r.next_hop = Ipv4Addr::parse("192.0.2.1");
    r.local_pref = lp;
    r.as_path_len = aspath;
    r.med = med;
    return r;
  }
};

TEST(Bgp, IgpTieBreakPrefersNearEgress) {
  BgpFixture f;
  f.bgp.announce(f.route(f.g.b), 0);
  f.bgp.announce(f.route(f.g.d), 0);
  // From a: IGP distance 1 to b, 2 to d -> choose b.
  EXPECT_EQ(f.bgp.best_egress(f.g.a, Ipv4Addr::parse("96.0.1.7"), 10), f.g.b);
  // From c: distance 2 to b (c-a-b or c-d-b), 1 to d -> choose d.
  EXPECT_EQ(f.bgp.best_egress(f.g.c, Ipv4Addr::parse("96.0.1.7"), 10), f.g.d);
}

TEST(Bgp, LocalPrefDominatesIgp) {
  BgpFixture f;
  f.bgp.announce(f.route(f.g.b, /*lp=*/100), 0);
  f.bgp.announce(f.route(f.g.d, /*lp=*/200), 0);
  EXPECT_EQ(f.bgp.best_egress(f.g.a, Ipv4Addr::parse("96.0.1.7"), 10), f.g.d);
}

TEST(Bgp, AsPathBreaksBeforeMed) {
  BgpFixture f;
  f.bgp.announce(f.route(f.g.b, 100, /*aspath=*/3, /*med=*/0), 0);
  f.bgp.announce(f.route(f.g.d, 100, /*aspath=*/2, /*med=*/9), 0);
  EXPECT_EQ(f.bgp.best_egress(f.g.a, Ipv4Addr::parse("96.0.1.7"), 10), f.g.d);
}

TEST(Bgp, WithdrawMovesEgress) {
  BgpFixture f;
  f.bgp.announce(f.route(f.g.b), 0);
  f.bgp.announce(f.route(f.g.d), 0);
  f.bgp.withdraw(f.dst, f.g.b, 500);
  EXPECT_EQ(f.bgp.best_egress(f.g.a, Ipv4Addr::parse("96.0.1.7"), 499), f.g.b);
  EXPECT_EQ(f.bgp.best_egress(f.g.a, Ipv4Addr::parse("96.0.1.7"), 500), f.g.d);
  // History intact: the past still shows b.
  EXPECT_EQ(f.bgp.best_egress(f.g.a, Ipv4Addr::parse("96.0.1.7"), 100), f.g.b);
}

TEST(Bgp, IgpFailureMovesEgress) {
  BgpFixture f;
  f.bgp.announce(f.route(f.g.b), 0);
  f.bgp.announce(f.route(f.g.d), 0);
  // Cut a's links toward b; egress should shift to d (via c).
  f.ospf.set_weight(f.g.ab, 300, kDown);
  f.ospf.set_weight(f.g.bd, 300, kDown);
  EXPECT_EQ(f.bgp.best_egress(f.g.a, Ipv4Addr::parse("96.0.1.7"), 299), f.g.b);
  EXPECT_EQ(f.bgp.best_egress(f.g.a, Ipv4Addr::parse("96.0.1.7"), 301), f.g.d);
}

TEST(Bgp, NoCoveringPrefix) {
  BgpFixture f;
  f.bgp.announce(f.route(f.g.b), 0);
  EXPECT_FALSE(
      f.bgp.best_egress(f.g.a, Ipv4Addr::parse("203.0.113.1"), 10).has_value());
}

TEST(Bgp, FallbackToShorterCoveringPrefix) {
  BgpFixture f;
  // A /16 covering route at d plus a more specific /24 at b.
  BgpRoute wide = f.route(f.g.d);
  wide.prefix = Ipv4Prefix::parse("96.0.0.0/16");
  f.bgp.announce(wide, 0);
  f.bgp.announce(f.route(f.g.b), 0);
  Ipv4Addr addr = Ipv4Addr::parse("96.0.1.7");
  EXPECT_EQ(f.bgp.best_egress(f.g.a, addr, 10), f.g.b);
  // Withdraw the /24: the /16 must take over (real LPM fallback).
  f.bgp.withdraw(f.dst, f.g.b, 100);
  EXPECT_EQ(f.bgp.best_egress(f.g.a, addr, 150), f.g.d);
}

TEST(Bgp, ReannounceReplacesAttributes) {
  BgpFixture f;
  f.bgp.announce(f.route(f.g.b, 100), 0);
  f.bgp.announce(f.route(f.g.d, 100), 0);
  // At t=100, b's route is re-announced with a worse local-pref.
  f.bgp.announce(f.route(f.g.b, 50), 100);
  EXPECT_EQ(f.bgp.best_egress(f.g.a, Ipv4Addr::parse("96.0.1.7"), 50), f.g.b);
  EXPECT_EQ(f.bgp.best_egress(f.g.a, Ipv4Addr::parse("96.0.1.7"), 150), f.g.d);
}

TEST(Bgp, UpdateLogCapturesEverything) {
  BgpFixture f;
  f.bgp.announce(f.route(f.g.b), 0);
  f.bgp.withdraw(f.dst, f.g.b, 10);
  f.bgp.withdraw(f.dst, f.g.b, 20);  // double withdraw: no-op
  ASSERT_EQ(f.bgp.update_log().size(), 2u);
  EXPECT_TRUE(f.bgp.update_log()[0].announce);
  EXPECT_FALSE(f.bgp.update_log()[1].announce);
}

TEST(Bgp, SeedCustomerRoutes) {
  Network net = topology::generate_isp(topology::TopoParams{});
  OspfSim ospf(net);
  BgpSim bgp(ospf);
  seed_customer_routes(bgp, net, 0);
  // Every customer prefix resolves from any ingress to its attachment PER.
  const auto& cust = net.customers()[7];
  RouterId expected = net.interface(cust.attachment).router;
  RouterId ingress = net.routers()[0].id;
  Ipv4Addr inside(cust.announced.address().value() + 5);
  EXPECT_EQ(bgp.best_egress(ingress, inside, 100), expected);
}

}  // namespace
}  // namespace grca::routing
