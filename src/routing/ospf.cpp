// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "routing/ospf.h"

#include <algorithm>

#include "routing/radix_heap.h"

namespace grca::routing {

using topology::LogicalLinkId;
using topology::RouterId;

OspfSim::OspfSim(const topology::Network& net) : net_(net) {
  history_.resize(net.links().size());
  initial_weight_.resize(net.links().size());
  for (const topology::LogicalLink& l : net.links()) {
    history_[l.id.value()].emplace_back(
        std::numeric_limits<util::TimeSec>::min(), l.ospf_weight);
    initial_weight_[l.id.value()] = spf_weight(l.ospf_weight);
  }
  hop_begin_.reserve(net.routers().size() + 1);
  for (const topology::Router& r : net.routers()) {
    hop_begin_.push_back(static_cast<std::uint32_t>(hops_.size()));
    for (LogicalLinkId l : net.links_of_router(r.id)) {
      hops_.push_back(Hop{l.value(), net.link_peer(l, r.id).value()});
    }
  }
  hop_begin_.push_back(static_cast<std::uint32_t>(hops_.size()));
}

void OspfSim::set_weight(LogicalLinkId link, util::TimeSec time,
                         int new_weight) {
  auto& hist = history_.at(link.value());
  if (time < hist.back().first) {
    throw ConfigError("OspfSim: weight changes must be time-ordered");
  }
  if (new_weight != kDown && new_weight != kCostedOut && new_weight <= 0) {
    throw ConfigError("OspfSim: invalid weight " + std::to_string(new_weight));
  }
  int old = hist.back().second;
  if (hist.size() == 1) changed_links_.push_back(link.value());
  hist.emplace_back(time, new_weight);
  log_.push_back(WeightChange{time, link, old, new_weight});
  // Maintain the sorted distinct change instants eagerly. The common case
  // (times arrive globally non-decreasing) appends; a change at or before an
  // already recorded instant renumbers later epochs, so the generation bumps
  // to invalidate every epoch number handed out so far.
  auto pos = std::lower_bound(epoch_times_.begin(), epoch_times_.end(), time);
  if (pos == epoch_times_.end()) {
    epoch_times_.push_back(time);
  } else {
    ++epoch_generation_;
    if (*pos != time) epoch_times_.insert(pos, time);
  }
  std::lock_guard lock(cache_mutex_);
  spf_cache_.clear();
}

std::shared_ptr<const OspfSim::Distances> OspfSim::run_spf(
    RouterId src, util::TimeSec time) const {
  spf_lookups_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t key =
      (static_cast<std::uint64_t>(src.value()) << 32) | epoch_at(time);
  {
    std::lock_guard lock(cache_mutex_);
    if (cache_enabled_) {
      auto it = spf_cache_.find(key);
      if (it != spf_cache_.end()) return it->second;
    }
  }
  // Dijkstra runs unlocked: concurrent misses on the same key duplicate the
  // computation but stay correct (last insert wins).
  spf_runs_.fetch_add(1, std::memory_order_relaxed);
  auto result = std::make_shared<const Distances>(compute_spf(src, time));
  std::lock_guard lock(cache_mutex_);
  if (cache_enabled_) {
    if (spf_cache_.size() >= 8192) spf_cache_.clear();  // crude size bound
    spf_cache_.emplace(key, result);
  }
  return result;
}

int OspfSim::weight_at(LogicalLinkId link, util::TimeSec time) const {
  const auto& hist = history_.at(link.value());
  if (hist.size() == 1) return hist.front().second;  // never changed
  // Last entry with entry.time <= time. First entry is at -inf, so the
  // bound is always found.
  auto it = std::upper_bound(
      hist.begin(), hist.end(), time,
      [](util::TimeSec t, const auto& e) { return t < e.first; });
  return std::prev(it)->second;
}

OspfSim::Distances OspfSim::compute_spf(RouterId src,
                                        util::TimeSec time) const {
  // Per-thread scratch reused across runs: each link's weight at `time` as
  // spf_weight() reads it, and the queue.
  struct Scratch {
    std::vector<int> weight;
    RadixHeap heap;
  };
  thread_local Scratch scratch;
  std::vector<int>& weight = scratch.weight;
  weight.assign(initial_weight_.begin(), initial_weight_.end());
  for (std::uint32_t l : changed_links_) {
    weight[l] = spf_weight(weight_at(LogicalLinkId(l), time));
  }

  // Weights are positive, so popped distances never decrease; OSPF metrics
  // are below kCostedOut and a path has fewer hops than there are routers,
  // so every distance fits the queue's 32-bit keys.
  Distances dist(hop_begin_.size() - 1, kUnreachable);
  RadixHeap& heap = scratch.heap;
  heap.clear();
  dist[src.value()] = 0;
  heap.push(0, src.value());
  while (!heap.empty()) {
    auto [key, u] = heap.pop();
    const int d = static_cast<int>(key);
    if (d > dist[u]) continue;
    for (std::uint32_t h = hop_begin_[u]; h < hop_begin_[u + 1]; ++h) {
      int w = weight[hops_[h].link];
      if (w == kUnreachable) continue;
      int nd = d + w;
      if (nd < dist[hops_[h].peer]) {
        dist[hops_[h].peer] = nd;
        heap.push(static_cast<std::uint32_t>(nd), hops_[h].peer);
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> OspfSim::path_routers(
    const Distances& dist, RouterId dst, util::TimeSec time,
    std::vector<LogicalLinkId>* links) const {
  std::vector<std::uint32_t> out;
  if (dist[dst.value()] == kUnreachable) return out;
  // Walk the ECMP predecessor DAG backwards from dst. Every weight is
  // positive and links are symmetric, so a hop out of a reached router v
  // leads to a predecessor exactly when the peer's distance plus the link
  // weight equals v's. `time` lies in the epoch `dist` was computed for,
  // so its weights are the ones Dijkstra read.
  std::vector<bool> seen(dist.size(), false);
  std::vector<std::uint32_t> stack = {dst.value()};
  seen[dst.value()] = true;
  while (!stack.empty()) {
    std::uint32_t r = stack.back();
    stack.pop_back();
    out.push_back(r);
    for (std::uint32_t h = hop_begin_[r]; h < hop_begin_[r + 1]; ++h) {
      std::uint32_t peer = hops_[h].peer;
      if (dist[peer] == kUnreachable) continue;
      int w = spf_weight(weight_at(LogicalLinkId(hops_[h].link), time));
      if (w == kUnreachable || dist[peer] + w != dist[r]) continue;
      if (links) links->emplace_back(hops_[h].link);
      if (!seen[peer]) {
        seen[peer] = true;
        stack.push_back(peer);
      }
    }
  }
  return out;
}

std::optional<int> OspfSim::distance(RouterId src, RouterId dst,
                                     util::TimeSec time) const {
  int d = (*run_spf(src, time))[dst.value()];
  if (d == kUnreachable) return std::nullopt;
  return d;
}

std::vector<RouterId> OspfSim::routers_on_paths(RouterId src, RouterId dst,
                                                util::TimeSec time) const {
  std::vector<std::uint32_t> routers =
      path_routers(*run_spf(src, time), dst, time);
  std::sort(routers.begin(), routers.end());
  return std::vector<RouterId>(routers.begin(), routers.end());
}

std::vector<LogicalLinkId> OspfSim::links_on_paths(RouterId src, RouterId dst,
                                                   util::TimeSec time) const {
  // The links on the paths are the predecessor hops of the routers on them.
  std::vector<LogicalLinkId> out;
  path_routers(*run_spf(src, time), dst, time, &out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace grca::routing
