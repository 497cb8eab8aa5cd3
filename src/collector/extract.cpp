// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "collector/extract.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <set>

#include "collector/normalizer.h"
#include "obs/metrics.h"
#include "util/strings.h"

namespace grca::collector {

using core::EventInstance;
using core::EventStore;
using core::Location;
using telemetry::SourceType;
using util::TimeSec;

namespace {

constexpr TimeSec kForever = std::numeric_limits<TimeSec>::max();

// Field names and attr keys the retrievals test, compared by id.
const util::Symbol kCpu5min("cpu5min");
const util::Symbol kIfUtil("ifutil");
const util::Symbol kIfCorrupt("ifcorrupt");
const util::Symbol kDelay("delay");
const util::Symbol kLoss("loss");
const util::Symbol kTput("tput");
const util::Symbol kRtt("rtt");
const util::Symbol kLoad("load");
const util::Symbol kPolicyChange("policy-change");
const util::Symbol kIngressKey("ingress");
const util::Symbol kEgressKey("egress");
const util::Symbol kNexthopKey("nexthop");
const util::Symbol kNodeKey("node");
const util::Symbol kClientKey("client");
const util::Symbol kPrefixKey("prefix");

/// "<a>|<b>": the key of a pairing or flood.
std::string join_key(std::string_view a, std::string_view b) {
  std::string key;
  key.reserve(a.size() + 1 + b.size());
  key += a;
  key += '|';
  key += b;
  return key;
}

/// An instance waiting in the fold for its emit, with what orders it among
/// equal-start instances of its name (see the emit order in extract.h).
struct Pending {
  EventInstance inst;
  /// Per-record retrievals: the source record (normalized_order), and
  /// `seq` is the instance's place within it.
  std::shared_ptr<const NormalizedRecord> record;
  /// Pairings and floods: the map key the instance belongs to.
  const std::string* key = nullptr;
  /// Within-record index, or the cost event's place in cost-event order.
  std::uint64_t seq = 0;
};

/// Emit order within one name.
bool emits_before(const Pending& x, const Pending& y) {
  if (x.inst.when.start != y.inst.when.start) {
    return x.inst.when.start < y.inst.when.start;
  }
  if (x.record && y.record && x.record != y.record) {
    if (auto c = normalized_order(*x.record, *y.record); c != 0) return c < 0;
  } else if (x.key && y.key && x.key != y.key) {
    return *x.key < *y.key;
  }
  return x.seq < y.seq;
}

/// Pending instances of one name in emit order; [head, end) are not
/// emitted yet, and the emitted prefix is erased once it is half the vector.
struct Queue {
  std::vector<Pending> items;
  std::size_t head = 0;

  /// Instances arrive nearly in emit order, so the place is found walking
  /// back from the end; equal ones keep their arrival order.
  void push(Pending p) {
    auto pos = items.end();
    const auto first = items.begin() + static_cast<std::ptrdiff_t>(head);
    while (pos != first && emits_before(p, *(pos - 1))) --pos;
    items.insert(pos, std::move(p));
  }

  template <typename Sink>
  void emit(TimeSec cut, Sink& sink) {
    while (head < items.size() && items[head].inst.when.start < cut) {
      sink(std::move(items[head++].inst));
    }
    if (2 * head >= items.size()) {
      items.erase(items.begin(),
                  items.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }
};

/// A down or up observation waiting to be paired into a flap.
struct UpDown {
  TimeSec time;
  bool up;
};

/// Per-key observation order: at equal timestamps, "down" sorts before "up"
/// (the physically sensible reading of a same-second flap).
bool observed_before(const UpDown& a, const UpDown& b) {
  return a.time < b.time || (a.time == b.time && !a.up && b.up);
}

/// A time-keyed entry of a min-heap over the entries of a map.
template <typename Map>
struct Due {
  TimeSec time;
  typename Map::iterator at;
  friend bool operator>(const Due& x, const Due& y) {
    return x.time > y.time ||
           (x.time == y.time &&
            std::greater<const void*>()(&*x.at, &*y.at));
  }
  friend bool operator==(const Due& x, const Due& y) {
    return x.time == y.time && x.at == y.at;
  }
};

/// "%LINK-3-UPDOWN: Interface so-0/0/0, changed state to down" -> (iface, up)
bool parse_updown(const std::string& body, const std::string& marker,
                  std::string& iface, bool& up) {
  if (!util::contains(body, marker)) return false;
  std::size_t pos = body.find("Interface ");
  if (pos == std::string::npos) return false;
  pos += 10;
  std::size_t comma = body.find(',', pos);
  if (comma == std::string::npos) return false;
  iface = body.substr(pos, comma - pos);
  up = util::ends_with(body, "to up");
  return true;
}

/// Extracts the token after `marker`.
bool token_after(const std::string& body, const std::string& marker,
                 std::string& out) {
  std::size_t pos = body.find(marker);
  if (pos == std::string::npos) return false;
  pos += marker.size();
  std::size_t end = body.find_first_of(" ,:", pos);
  out = body.substr(pos, end == std::string::npos ? std::string::npos
                                                  : end - pos);
  return !out.empty();
}

}  // namespace

struct EventExtractor::Fold {
  Fold(const topology::Network& net, const ExtractOptions& options)
      : net(net), options(options) {}

  const topology::Network& net;
  const ExtractOptions options;

  /// Pending instances per event name.
  std::map<std::string, Queue, std::less<>> pending;
  std::uint64_t observed = 0;
  std::uint64_t published = 0;  // observed records already counted

  /// The record being observed. Its instances and readings share one hold
  /// of it, made on first need: a copy, or (batch extract, whose records
  /// outlive the fold) a non-owning pointer.
  const NormalizedRecord* current = nullptr;
  bool borrow = false;
  bool held_current = false;  // `held` holds `current`
  std::shared_ptr<const NormalizedRecord> held;
  std::uint64_t record_instances = 0;  // instances `current` has built

  const std::shared_ptr<const NormalizedRecord>& hold() {
    if (!held_current) {
      held = borrow ? std::shared_ptr<const NormalizedRecord>(
                          std::shared_ptr<const void>(), current)
                    : std::make_shared<const NormalizedRecord>(*current);
      held_current = true;
      record_instances = 0;
    }
    return held;
  }

  Queue& queue(std::string_view name) {
    auto it = pending.find(name);
    if (it == pending.end()) it = pending.emplace(name, Queue{}).first;
    return it->second;
  }
  /// Queues an instance of a per-record retrieval of `current`.
  void add(EventInstance inst) {
    Queue& q = queue(inst.name);
    q.push(Pending{std::move(inst), hold(), nullptr, record_instances++});
  }

  // ---- Flap pairing ------------------------------------------------------
  // Emits "<base>-down", "<base>-up" for each observation and "<base>-flap"
  // spanning each down..up pair within the window. Unpaired downs produce
  // no flap (the condition persisted).
  struct FlapKey {
    Location where;
    std::vector<UpDown> seq;  // sorted by observed_before; spent prefix cut
  };
  using FlapKeys = std::map<std::string, FlapKey, std::less<>>;
  struct Flaps {
    std::string down, up, flap;  // event names
    Queue *downs_queue, *ups_queue, *flaps_queue;
    Location (*where)(const std::vector<std::string>& parts);
    FlapKeys keys;  // "<router>|<detail>"
    std::vector<Due<FlapKeys>> downs;  // not decided yet (min-heap)
  };
  Flaps flaps_of(const std::string& base,
                 Location (*where)(const std::vector<std::string>&)) {
    Flaps f{base + "-down", base + "-up", base + "-flap",
            nullptr, nullptr, nullptr, where, {}, {}};
    f.downs_queue = &queue(f.down);
    f.ups_queue = &queue(f.up);
    f.flaps_queue = &queue(f.flap);
    return f;
  }
  Flaps link_flaps = flaps_of("interface", [](const auto& parts) {
    return Location::interface(parts[0], parts[1]);
  });
  Flaps proto_flaps = flaps_of("line-protocol", [](const auto& parts) {
    return Location::interface(parts[0], parts[1]);
  });
  Flaps bgp_flaps = flaps_of("ebgp", [](const auto& parts) {
    return Location::router_neighbor(parts[0], parts[1]);
  });
  Flaps pim_flaps = flaps_of("pim-adjacency", [](const auto& parts) {
    return Location::vpn_neighbor(parts[0], parts[1], parts[2]);
  });

  void observe_updown(Flaps& flaps, const std::string& key, TimeSec time,
                      bool up) {
    auto it = flaps.keys.find(key);
    if (it == flaps.keys.end()) {
      it = flaps.keys.emplace(key, FlapKey{flaps.where(util::split(key, '|')),
                                           {}})
               .first;
    }
    UpDown o{time, up};
    std::vector<UpDown>& seq = it->second.seq;
    seq.insert(std::upper_bound(seq.begin(), seq.end(), o, observed_before),
               o);
    (up ? flaps.ups_queue : flaps.downs_queue)
        ->push(Pending{EventInstance{up ? flaps.up : flaps.down,
                                     {time, time},
                                     it->second.where,
                                     {}},
                       nullptr, &it->first, 0});
    if (!up) {
      flaps.downs.push_back({time, it});
      std::push_heap(flaps.downs.begin(), flaps.downs.end(), std::greater<>());
    }
  }

  /// Decides every down before `cut`: it pairs iff the next observation of
  /// its key is an up within the window. Keys left with no observation go
  /// to `spent` (every instance naming them starts before `cut`).
  void decide_flaps(Flaps& flaps, TimeSec cut,
                    std::vector<std::pair<Flaps*, FlapKeys::iterator>>& spent) {
    while (!flaps.downs.empty() && flaps.downs.front().time < cut) {
      std::pop_heap(flaps.downs.begin(), flaps.downs.end(), std::greater<>());
      auto due = flaps.downs.back();
      flaps.downs.pop_back();
      // Equal downs of one key pop back to back; the last one decides.
      if (!flaps.downs.empty() && flaps.downs.front() == due) continue;
      std::vector<UpDown>& seq = due.at->second.seq;
      auto next = std::upper_bound(seq.begin(), seq.end(),
                                   UpDown{due.time, false}, observed_before);
      if (next != seq.end() && next->up &&
          next->time - due.time <= options.flap_pair_window) {
        flaps.flaps_queue->push(Pending{EventInstance{flaps.flap,
                                                      {due.time, next->time},
                                                      due.at->second.where,
                                                      {}},
                                        nullptr, &due.at->first, 0});
      }
      // Only a down looks ahead, so everything up to this down is spent, and
      // so is an up right after it that lies before the cut: no later
      // observation can precede it.
      if (next != seq.end() && next->up && next->time < cut) ++next;
      seq.erase(seq.begin(), next);
      if (seq.empty()) spent.push_back({&flaps, due.at});
    }
  }

  // ---- BGP prefix floods ---------------------------------------------------
  struct FloodKey {
    Location where;
    std::vector<TimeSec> times;  // announces not scanned yet, sorted
    bool in_flood = false;       // the last scan ended inside a flood...
    TimeSec flood_last = 0;      // ...whose last announce is this
  };
  using FloodKeys = std::map<std::string, FloodKey, std::less<>>;
  FloodKeys floods;                       // "<egress>|<nexthop>"
  std::vector<Due<FloodKeys>> announces;  // not scanned yet (min-heap)

  void observe_announce(const std::string& key, TimeSec time) {
    auto it = floods.find(key);
    if (it == floods.end()) {
      auto parts = util::split(key, '|');
      it = floods.emplace(key, FloodKey{Location::router_neighbor(parts[0],
                                                                  parts[1]),
                                        {}, false, 0})
               .first;
    }
    std::vector<TimeSec>& times = it->second.times;
    times.insert(std::upper_bound(times.begin(), times.end(), time), time);
    announces.push_back({time, it});
    std::push_heap(announces.begin(), announces.end(), std::greater<>());
  }

  /// A session announcing >= prefix_flood_count prefixes inside the sliding
  /// window is flooding; the event spans the whole burst (consecutive
  /// announces no further than one window apart), so one leak yields one
  /// instance, not a train of overlapping ones.
  void scan_floods(FloodKeys::iterator at, TimeSec cut) {
    FloodKey& k = at->second;
    std::vector<TimeSec>& times = k.times;
    const TimeSec window = options.prefix_flood_window;
    const std::size_t need =
        static_cast<std::size_t>(std::max(options.prefix_flood_count, 1));
    std::size_t i = 0;
    while (i < times.size() && times[i] < cut) {
      if (k.in_flood && times[i] - k.flood_last <= window) {
        k.flood_last = std::max(k.flood_last, times[i++]);
        continue;
      }
      k.in_flood = false;
      if (i + need > times.size() ||
          times[i + need - 1] - times[i] > window) {
        ++i;
        continue;
      }
      std::size_t j = i + need - 1;
      while (j + 1 < times.size() && times[j + 1] - times[j] <= window) ++j;
      queue("bgp-prefix-flood")
          .push(Pending{EventInstance{"bgp-prefix-flood",
                                      {times[i], times[j]},
                                      k.where,
                                      {}},
                        nullptr, &at->first, 0});
      k.in_flood = true;
      k.flood_last = times[j];
      i = j + 1;
    }
    times.erase(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(i));
  }

  void decide_floods(TimeSec cut) {
    while (!announces.empty() && announces.front().time < cut) {
      std::pop_heap(announces.begin(), announces.end(), std::greater<>());
      FloodKeys::iterator at = announces.back().at;
      announces.pop_back();
      scan_floods(at, cut);
    }
  }

  // ---- Router vs link cost-in/out inference ------------------------------
  struct Reading {
    TimeSec time;
    std::shared_ptr<const NormalizedRecord> record;  // orders equal times
    topology::LogicalLinkId link;
    int metric;
  };
  /// OSPF readings whose transition is not decided yet, in record order.
  std::deque<Reading> readings;
  /// Previous metric per link id, over every decided reading.
  std::map<std::uint32_t, int> prev_metric;
  struct CostEvent {
    TimeSec time;
    topology::LogicalLinkId link;
    bool out;  // cost-out/down vs cost-in/up
    bool claimed = false;  // grouped into a router-wide change
  };
  /// Transitions not grouped yet, in cost-event order.
  std::deque<CostEvent> cost_events;
  std::uint64_t cost_order = 0;

  void observe_reading(TimeSec time, topology::LogicalLinkId link,
                       int metric) {
    Reading reading{time, hold(), link, metric};
    auto pos = std::upper_bound(
        readings.begin(), readings.end(), reading,
        [](const Reading& x, const Reading& y) {
          if (x.time != y.time) return x.time < y.time;
          return normalized_order(*x.record, *y.record) < 0;
        });
    readings.insert(pos, std::move(reading));
  }

  void decide_transitions(TimeSec horizon) {
    while (!readings.empty() && readings.front().time < horizon) {
      const Reading& r = readings.front();
      bool now_out = r.metric == 0xFFFF || r.metric == -1;
      auto [it, first] = prev_metric.try_emplace(r.link.value(), r.metric);
      bool was_out = !first && (it->second == 0xFFFF || it->second == -1);
      it->second = r.metric;
      if (now_out != was_out) {
        cost_events.push_back(CostEvent{r.time, r.link, now_out});
      }
      readings.pop_front();
    }
  }

  /// A router is "costed out/in" when every backbone link it terminates
  /// changes cost state within a short window; the constituent link events
  /// are then attributed to the router, not to the links (Table VIII counts
  /// them separately).
  void group_costs(TimeSec cut) {
    while (!cost_events.empty() && cost_events.front().time < cut) {
      const CostEvent first = cost_events.front();
      if (!first.claimed && !group_router(first)) {
        const topology::LogicalLink& l = net.link(first.link);
        const topology::Interface& a = net.interface(l.side_a);
        std::string name = first.out ? "link-cost-outdown" : "link-cost-inup";
        queue(name).push(Pending{
            EventInstance{name,
                          {first.time, first.time},
                          Location::interface(net.router(a.router).name,
                                              a.name),
                          {}},
            nullptr, nullptr, cost_order++});
      }
      cost_events.pop_front();
    }
  }

  /// Tries both endpoint routers of the front event's link; on a
  /// router-wide change, queues it and claims its link events.
  bool group_router(const CostEvent& first) {
    const topology::LogicalLink& l = net.link(first.link);
    for (topology::RouterId router :
         {net.interface(l.side_a).router, net.interface(l.side_b).router}) {
      auto router_links = net.links_of_router(router);
      if (router_links.size() < 2) continue;
      std::set<std::uint32_t> seen;
      std::vector<CostEvent*> members;
      for (CostEvent& e : cost_events) {
        if (e.time - first.time > options.router_cost_window) break;
        if (e.claimed || e.out != first.out) continue;
        if (std::find(router_links.begin(), router_links.end(), e.link) ==
            router_links.end()) {
          continue;
        }
        if (seen.insert(e.link.value()).second) members.push_back(&e);
      }
      // A router-wide cost change: (nearly) every link the router terminates
      // changed state together. Links already in the target state produce no
      // transition, so tolerate a small shortfall (>= 80%, at least 2).
      if (seen.size() >= 2 && 10 * seen.size() >= 8 * router_links.size()) {
        EventInstance inst;
        inst.name = "router-cost-inout";
        inst.when = {first.time, first.time};
        inst.where = Location::router(net.router(router).name);
        inst.attrs["direction"] = first.out ? "out" : "in";
        Queue& q = queue(inst.name);
        q.push(Pending{std::move(inst), nullptr, nullptr, cost_order++});
        for (CostEvent* e : members) e->claimed = true;
        return true;
      }
    }
    return false;
  }

  // ---- Observe and emit --------------------------------------------------
  void observe(const NormalizedRecord& r, bool borrowed);

  template <typename Sink>
  void emit(TimeSec cut, Sink&& sink) {
    std::vector<std::pair<Flaps*, FlapKeys::iterator>> spent;
    for (Flaps* flaps : {&link_flaps, &proto_flaps, &bgp_flaps, &pim_flaps}) {
      decide_flaps(*flaps, cut, spent);
    }
    decide_floods(cut);
    decide_transitions(cut > kForever - options.router_cost_window
                           ? kForever
                           : cut + options.router_cost_window);
    group_costs(cut);
    for (auto& [name, q] : pending) q.emit(cut, sink);
    // Spent keys go once no pending instance points at them.
    for (auto [flaps, at] : spent) flaps->keys.erase(at);
    if (observed > published) {
      if (obs::MetricsRegistry* reg = obs::registry_ptr()) {
        reg->counter("grca_extract_records_total").inc(observed - published);
      }
      published = observed;
    }
  }
};

void EventExtractor::Fold::observe(const NormalizedRecord& r, bool borrowed) {
  ++observed;
  current = &r;
  borrow = borrowed;
  held_current = false;
  switch (r.source) {
    case SourceType::kSyslog: {
      const std::string& body = r.body;
      const std::string_view router = r.router.view();
      std::string iface, token;
      bool up = false;
      if (parse_updown(body, "%LINK-3-UPDOWN", iface, up)) {
        observe_updown(link_flaps, join_key(router, iface), r.utc, up);
      } else if (parse_updown(body, "%LINEPROTO-5-UPDOWN", iface, up)) {
        observe_updown(proto_flaps, join_key(router, iface), r.utc, up);
      } else if (util::contains(body, "%BGP-5-ADJCHANGE")) {
        if (!token_after(body, "neighbor ", token)) break;
        bool session_up = util::contains(body, " Up");
        observe_updown(bgp_flaps, join_key(router, token), r.utc,
                       session_up);
      } else if (util::contains(body, "%BGP-5-NOTIFICATION")) {
        if (!token_after(body, "neighbor ", token)) break;
        EventInstance inst;
        inst.when = {r.utc, r.utc};
        inst.where = Location::router_neighbor(r.router.str(), token);
        if (util::contains(body, "hold time expired")) {
          inst.name = "ebgp-hte";
        } else if (util::contains(body, "administrative reset")) {
          inst.name = "customer-reset-session";
        } else {
          inst.name = "bgp-notification";
        }
        add(std::move(inst));
      } else if (util::contains(body, "%SYS-5-RESTART")) {
        add(EventInstance{"router-reboot", {r.utc, r.utc},
                          Location::router(r.router.str()), {}});
      } else if (util::contains(body, "%SYS-1-CPURISINGTHRESHOLD")) {
        add(EventInstance{"cpu-high-spike", {r.utc, r.utc},
                          Location::router(r.router.str()), {}});
      } else if (util::contains(body, "%PIM-5-NBRCHG")) {
        // "%PIM-5-NBRCHG: VRF <vpn>: neighbor <ip> DOWN|UP"
        std::string vpn, nbr;
        if (!token_after(body, "VRF ", vpn) ||
            !token_after(body, "neighbor ", nbr)) {
          break;
        }
        bool adj_up = util::ends_with(body, " UP");
        if (vpn == "default") {
          if (!adj_up) {
            EventInstance inst;
            inst.name = "uplink-pim-adjacency-change";
            inst.when = {r.utc, r.utc};
            inst.where = Location::router(r.router.str());
            inst.attrs["neighbor"] = nbr;
            add(std::move(inst));
          }
        } else {
          observe_updown(pim_flaps, join_key(join_key(router, nbr), vpn),
                         r.utc, adj_up);
        }
      } else if (util::contains(body, "%MCE-2-CRASH")) {
        // A slot that is not a number yields no instance.
        std::string slot;
        if (!token_after(body, "slot ", slot)) break;
        if (auto n = util::parse_number<int>(slot)) {
          add(EventInstance{"linecard-crash",
                            {r.utc, r.utc},
                            Location::line_card(r.router.str(), *n),
                            {}});
        }
      }
      break;
    }
    case SourceType::kSnmp: {
      if (r.field == kCpu5min && r.value >= options.cpu_avg_threshold) {
        add(EventInstance{"cpu-high-avg", {r.utc - 300, r.utc},
                          Location::router(r.router.str()), {}});
      } else if (r.field == kIfUtil && r.value >= options.util_threshold) {
        add(EventInstance{"link-congestion", {r.utc - 300, r.utc},
                          Location::interface(r.router.str(),
                                              r.interface.str()),
                          {}});
      } else if (r.field == kIfCorrupt &&
                 r.value >= options.corrupt_threshold) {
        add(EventInstance{"link-loss", {r.utc - 300, r.utc},
                          Location::interface(r.router.str(),
                                              r.interface.str()),
                          {}});
      }
      break;
    }
    case SourceType::kLayer1Log: {
      std::string name;
      if (util::contains(r.body, "APS")) {
        name = "sonet-restoration";
      } else if (util::contains(r.body, "restoration fast")) {
        name = "optical-restoration-fast";
      } else if (util::contains(r.body, "restoration regular")) {
        name = "optical-restoration-regular";
      } else {
        break;
      }
      EventInstance inst;
      inst.name = std::move(name);
      inst.when = {r.utc, r.utc};
      inst.where = Location::layer1(r.device.str());
      std::string ckt;
      if (token_after(r.body, "circuit ", ckt)) inst.attrs["circuit"] = ckt;
      add(std::move(inst));
      break;
    }
    case SourceType::kTacacs: {
      const std::string& body = r.body;
      std::string iface, vpn;
      auto router = net.find_router(r.router.view());
      if (util::contains(body, "max-metric router-lsa")) {
        // Router-wide cost-out (or cost-in when prefixed with "no").
        bool cost_in = util::contains(body, "no max-metric");
        if (!router) break;
        for (topology::InterfaceId i : net.router(*router).interfaces) {
          const topology::Interface& ifc = net.interface(i);
          if (ifc.kind != topology::InterfaceKind::kBackbone) continue;
          add(EventInstance{cost_in ? "cmd-cost-in" : "cmd-cost-out",
                            {r.utc, r.utc},
                            Location::interface(r.router.str(), ifc.name),
                            {}});
        }
      } else if (util::contains(body, "set ospf metric") &&
                 token_after(body, "interface ", iface)) {
        bool cost_out = util::contains(body, "metric 65535");
        add(EventInstance{cost_out ? "cmd-cost-out" : "cmd-cost-in",
                          {r.utc, r.utc},
                          Location::interface(r.router.str(), iface),
                          {}});
      } else if (util::contains(body, "mvpn") &&
                 token_after(body, "vrf ", vpn)) {
        EventInstance inst;
        inst.name = "pim-config-change";
        inst.when = {r.utc, r.utc};
        inst.where = Location::router(r.router.str());
        inst.attrs["vpn"] = vpn;
        add(std::move(inst));
      }
      break;
    }
    case SourceType::kWorkflowLog: {
      add(EventInstance{"workflow-" + r.field.str(),  // workflow-provisioning
                        {r.utc, r.utc},
                        Location::router(r.router.str()),
                        {}});
      break;
    }
    case SourceType::kOspfMon: {
      auto router = net.find_router(r.router.view());
      if (!router) break;
      auto iface = net.find_interface(*router, r.interface.view());
      if (!iface || !net.interface(*iface).link.valid()) break;
      add(EventInstance{"ospf-reconvergence", {r.utc, r.utc},
                        Location::interface(r.router.str(), r.interface.str()),
                        {}});
      observe_reading(r.utc, net.interface(*iface).link,
                      static_cast<int>(r.value));
      break;
    }
    case SourceType::kPerfMon: {
      auto in = r.attrs.find(kIngressKey);
      auto out = r.attrs.find(kEgressKey);
      if (in == r.attrs.end() || out == r.attrs.end()) break;
      std::string name;
      if (r.field == kDelay && r.value >= options.delay_threshold) {
        name = "innet-delay-increase";
      } else if (r.field == kLoss && r.value >= options.loss_threshold) {
        name = "innet-loss-increase";
      } else if (r.field == kTput &&
                 r.value <= options.innet_tput_threshold) {
        name = "innet-tput-drop";
      } else {
        break;
      }
      add(EventInstance{std::move(name), {r.utc, r.utc},
                        Location::pop_pair(in->second.str(),
                                           out->second.str()),
                        {}});
      break;
    }
    case SourceType::kCdnMon: {
      auto node = r.attrs.find(kNodeKey);
      auto client = r.attrs.find(kClientKey);
      if (node == r.attrs.end() || client == r.attrs.end()) break;
      if (r.field == kRtt && r.value >= options.rtt_threshold) {
        add(EventInstance{"cdn-rtt-increase", {r.utc, r.utc},
                          Location::cdn_client(node->second.str(),
                                               client->second.str()),
                          {}});
      } else if (r.field == kTput && r.value <= options.tput_threshold) {
        add(EventInstance{"cdn-tput-drop", {r.utc, r.utc},
                          Location::cdn_client(node->second.str(),
                                               client->second.str()),
                          {}});
      }
      break;
    }
    case SourceType::kServerLog: {
      auto node = r.attrs.find(kNodeKey);
      if (node == r.attrs.end()) break;
      if (r.field == kPolicyChange) {
        add(EventInstance{"cdn-policy-change", {r.utc, r.utc},
                          Location::cdn_node(node->second.str()), {}});
      } else if (r.field == kLoad &&
                 r.value >= options.server_load_threshold) {
        add(EventInstance{"cdn-server-issue", {r.utc, r.utc},
                          Location::cdn_node(node->second.str()), {}});
      }
      break;
    }
    case SourceType::kBgpMon: {
      // Egress changes are handled by extract_egress_changes; here the
      // feed is watched for announce bursts (the route-leak signature).
      if (r.body != "announce") break;
      auto egress = r.attrs.find(kEgressKey);
      auto nexthop = r.attrs.find(kNexthopKey);
      if (egress == r.attrs.end() || nexthop == r.attrs.end()) break;
      observe_announce(join_key(egress->second.view(), nexthop->second.view()),
                       r.utc);
      break;
    }
  }
}

EventExtractor::EventExtractor(const topology::Network& net,
                               ExtractOptions options)
    : net_(net),
      options_(options),
      fold_(std::make_unique<Fold>(net_, options_)) {}

EventExtractor::~EventExtractor() = default;

void EventExtractor::observe(const NormalizedRecord& record) {
  fold_->observe(record, /*borrowed=*/false);
}

void EventExtractor::emit(TimeSec cut, std::vector<EventInstance>& out) {
  fold_->emit(cut, [&out](EventInstance&& e) { out.push_back(std::move(e)); });
}

void EventExtractor::extract(std::span<const NormalizedRecord> records,
                             EventStore& store) const {
  Fold fold(net_, options_);
  for (const NormalizedRecord& r : records) fold.observe(r, /*borrowed=*/true);
  fold.emit(kForever, [&store](EventInstance&& e) { store.add(std::move(e)); });
}

void EventExtractor::extract_egress_changes(
    std::span<const NormalizedRecord> records, const routing::BgpSim& bgp,
    const std::vector<topology::RouterId>& observers,
    EventStore& store) const {
  for (const NormalizedRecord& r : records) {
    if (r.source != SourceType::kBgpMon) continue;
    auto prefix_it = r.attrs.find(kPrefixKey);
    if (prefix_it == r.attrs.end()) continue;
    // A malformed prefix yields no instance (routing replay skips it too).
    util::Ipv4Prefix prefix;
    try {
      prefix = util::Ipv4Prefix::parse(prefix_it->second.view());
    } catch (const ParseError&) {
      continue;
    }
    // A representative destination inside the prefix.
    util::Ipv4Addr rep(prefix.address().value() +
                       (prefix.length() < 32 ? 1u : 0u));
    for (topology::RouterId observer : observers) {
      auto before = bgp.best_egress(observer, rep, r.utc - 1);
      auto after = bgp.best_egress(observer, rep, r.utc + 1);
      if (before == after) continue;
      EventInstance inst;
      inst.name = "bgp-egress-change";
      inst.when = {r.utc, r.utc};
      inst.where = Location::ingress_destination(
          net_.router(observer).name, rep.to_string());
      if (before) inst.attrs["from"] = net_.router(*before).name;
      if (after) inst.attrs["to"] = net_.router(*after).name;
      store.add(std::move(inst));
    }
  }
}

}  // namespace grca::collector
