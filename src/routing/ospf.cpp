// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "routing/ospf.h"

#include <algorithm>
#include <functional>

namespace grca::routing {

using topology::LogicalLinkId;
using topology::RouterId;

OspfSim::OspfSim(const topology::Network& net) : net_(net) {
  history_.resize(net.links().size());
  for (const topology::LogicalLink& l : net.links()) {
    history_[l.id.value()].emplace_back(
        std::numeric_limits<util::TimeSec>::min(), l.ospf_weight);
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

std::shared_ptr<const OspfSim::SpfResult> OspfSim::run_spf(
    RouterId src, util::TimeSec time) const {
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
  auto result = std::make_shared<SpfResult>(compute_spf(src, time));
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

OspfSim::SpfResult OspfSim::compute_spf(RouterId src,
                                        util::TimeSec time) const {
  const std::size_t n = hop_begin_.size() - 1;
  using Item = std::pair<int, std::uint32_t>;  // (distance, router)
  // Per-thread scratch reused across runs: each link's weight at `time`
  // (kUnreachable when it carries no traffic), the heap, and the
  // predecessor hops before they are copied into the exact-size result.
  struct Scratch {
    std::vector<int> weight;
    std::vector<Item> heap;
    std::vector<std::uint32_t> preds;
  };
  thread_local Scratch scratch;
  std::vector<int>& weight = scratch.weight;
  weight.resize(history_.size());
  for (std::size_t l = 0; l < weight.size(); ++l) {
    int w = weight_at(LogicalLinkId(static_cast<std::uint32_t>(l)), time);
    weight[l] = (w == kDown || w == kCostedOut) ? kUnreachable : w;
  }

  SpfResult res;
  res.dist.assign(n, kUnreachable);
  std::vector<Item>& heap = scratch.heap;
  heap.clear();
  res.dist[src.value()] = 0;
  heap.emplace_back(0, src.value());
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    auto [d, u] = heap.back();
    heap.pop_back();
    if (d > res.dist[u]) continue;
    for (std::uint32_t h = hop_begin_[u]; h < hop_begin_[u + 1]; ++h) {
      int w = weight[hops_[h].link];
      if (w == kUnreachable) continue;
      int nd = d + w;
      if (nd < res.dist[hops_[h].peer]) {
        res.dist[hops_[h].peer] = nd;
        heap.emplace_back(nd, hops_[h].peer);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
      }
    }
  }

  // Every weight is positive and links are symmetric, so a hop out of a
  // reached router v leads to an ECMP predecessor exactly when the peer's
  // distance plus the link weight equals v's.
  std::vector<std::uint32_t>& preds = scratch.preds;
  preds.clear();
  res.pred_begin.resize(n + 1);
  for (std::uint32_t v = 0; v < n; ++v) {
    res.pred_begin[v] = static_cast<std::uint32_t>(preds.size());
    if (res.dist[v] == kUnreachable) continue;
    for (std::uint32_t h = hop_begin_[v]; h < hop_begin_[v + 1]; ++h) {
      int w = weight[hops_[h].link];
      int dp = res.dist[hops_[h].peer];
      if (w != kUnreachable && dp != kUnreachable && dp + w == res.dist[v]) {
        preds.push_back(h);
      }
    }
  }
  res.pred_begin[n] = static_cast<std::uint32_t>(preds.size());
  res.preds.assign(preds.begin(), preds.end());
  return res;
}

std::vector<std::uint32_t> OspfSim::path_routers(const SpfResult& res,
                                                 RouterId dst) const {
  std::vector<std::uint32_t> out;
  if (res.dist[dst.value()] == kUnreachable) return out;
  // Walk the ECMP predecessor DAG backwards from dst.
  std::vector<bool> seen(res.dist.size(), false);
  std::vector<std::uint32_t> stack = {dst.value()};
  seen[dst.value()] = true;
  while (!stack.empty()) {
    std::uint32_t r = stack.back();
    stack.pop_back();
    out.push_back(r);
    for (std::uint32_t p = res.pred_begin[r]; p < res.pred_begin[r + 1]; ++p) {
      std::uint32_t peer = hops_[res.preds[p]].peer;
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
  int d = run_spf(src, time)->dist[dst.value()];
  if (d == kUnreachable) return std::nullopt;
  return d;
}

std::vector<RouterId> OspfSim::routers_on_paths(RouterId src, RouterId dst,
                                                util::TimeSec time) const {
  std::vector<std::uint32_t> routers = path_routers(*run_spf(src, time), dst);
  std::sort(routers.begin(), routers.end());
  return std::vector<RouterId>(routers.begin(), routers.end());
}

std::vector<LogicalLinkId> OspfSim::links_on_paths(RouterId src, RouterId dst,
                                                   util::TimeSec time) const {
  std::shared_ptr<const SpfResult> res = run_spf(src, time);
  // The links on the paths are the predecessor hops of the routers on them.
  std::vector<LogicalLinkId> out;
  for (std::uint32_t r : path_routers(*res, dst)) {
    for (std::uint32_t p = res->pred_begin[r]; p < res->pred_begin[r + 1];
         ++p) {
      out.emplace_back(hops_[res->preds[p]].link);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace grca::routing
