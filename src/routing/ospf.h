// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// OSPF routing simulation with time-versioned link weights.
//
// The paper's G-RCA computes "the logical link or router level path between
// [an ingress/egress pair] via an OSPF routing simulation based on
// network-wide link weights from route-monitoring tools such as OSPFMon"
// (§II-B utility 3), including all paths under ECMP. This module is that
// simulation: it keeps the full history of weight changes so any path can be
// reconstructed *as of a given time* — the key to diagnosing historical
// events.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "topology/network.h"
#include "util/time.h"

namespace grca::routing {

/// Weight value meaning "costed out": the link is up but advertised at
/// max-metric so traffic avoids it (operators "cost out" links before
/// maintenance). Still usable if no other path exists — but we treat it as
/// unusable for simplicity, matching how the tier-1 ISP uses max-metric.
constexpr int kCostedOut = 0xFFFF;

/// Weight value meaning "down": the adjacency is gone (interface failure).
constexpr int kDown = -1;

/// One weight change observed in the IGP (an LSA in real life).
struct WeightChange {
  util::TimeSec time = 0;
  topology::LogicalLinkId link;
  int old_weight = 0;
  int new_weight = 0;
};

/// The OSPF simulator. Construction snapshots the initial weights from the
/// Network; set_weight() appends changes (times must be non-decreasing per
/// link). All queries take an explicit time.
///
/// Threading: the const query interface is safe to call from concurrent
/// threads (the SPF memo cache is internally synchronized); set_weight() and
/// set_cache_enabled() must not race with queries — replay routing first,
/// then fan diagnosis out.
class OspfSim {
 public:
  explicit OspfSim(const topology::Network& net);

  /// Records a weight change at the given time. new_weight is a positive
  /// metric, kCostedOut, or kDown.
  void set_weight(topology::LogicalLinkId link, util::TimeSec time,
                  int new_weight);

  /// The weight in effect at `time` (initial weight before any change).
  int weight_at(topology::LogicalLinkId link, util::TimeSec time) const;

  /// The time of the most recent recorded change on the link, or
  /// TimeSec-min when it never changed. set_weight() at or after this
  /// instant is guaranteed to succeed.
  util::TimeSec last_change(topology::LogicalLinkId link) const {
    return history_.at(link.value()).back().first;
  }

  /// True when the link carries traffic at `time`.
  bool usable_at(topology::LogicalLinkId link, util::TimeSec time) const {
    int w = weight_at(link, time);
    return w != kDown && w != kCostedOut;
  }

  /// Shortest IGP distance from src to dst at `time`; nullopt if unreachable.
  std::optional<int> distance(topology::RouterId src, topology::RouterId dst,
                              util::TimeSec time) const;

  /// All routers on any shortest (ECMP) path from src to dst at `time`,
  /// including the endpoints. Empty if unreachable. Deduplicated.
  std::vector<topology::RouterId> routers_on_paths(topology::RouterId src,
                                                   topology::RouterId dst,
                                                   util::TimeSec time) const;

  /// All logical links on any shortest (ECMP) path from src to dst at `time`.
  std::vector<topology::LogicalLinkId> links_on_paths(topology::RouterId src,
                                                      topology::RouterId dst,
                                                      util::TimeSec time) const;

  /// Complete change history (ordered per link, globally unsorted).
  const std::vector<WeightChange>& change_log() const noexcept { return log_; }

  /// Routing epoch at `time`: the number of distinct weight-change instants
  /// at or before it. The counter is constant between changes and advances
  /// exactly when routing state can differ, so anything derived purely from
  /// paths-as-of-t (SPF results, spatial projections) is a function of its
  /// epoch — the memo key of the SPF cache and of each JoinMemo. Lock-free
  /// read of state mutated only by set_weight(), which must not race with
  /// queries (the class's standing replay-then-diagnose contract).
  std::size_t epoch_at(util::TimeSec time) const noexcept {
    return static_cast<std::size_t>(
        std::upper_bound(epoch_times_.begin(), epoch_times_.end(), time) -
        epoch_times_.begin());
  }

  /// Bumped whenever set_weight() records a change at or before an already
  /// recorded instant: epochs at later times renumber (or a boundary changes
  /// meaning), so previously computed epoch numbers go stale. Cache keys
  /// pair the epoch with this generation so stale numbers never alias.
  std::uint64_t epoch_generation() const noexcept { return epoch_generation_; }

  /// Disables/enables SPF memoization (enabled by default). The ablation
  /// benches use this to measure the raw route-reconstruction cost that
  /// dominated the paper's CDN diagnosis times.
  void set_cache_enabled(bool enabled) const {
    std::lock_guard lock(cache_mutex_);
    cache_enabled_ = enabled;
    spf_cache_.clear();
  }

  /// SPF work since construction: memo lookups (one per distance(),
  /// routers_on_paths() or links_on_paths() call) and Dijkstra runs (the
  /// lookups that missed, or all of them with the memo off). Concurrent
  /// misses on one key each run, so runs can vary across threaded runs.
  struct SpfStats {
    std::uint64_t lookups = 0;
    std::uint64_t runs = 0;
  };
  SpfStats spf_stats() const noexcept {
    return {spf_lookups_.load(std::memory_order_relaxed),
            spf_runs_.load(std::memory_order_relaxed)};
  }

  const topology::Network& network() const noexcept { return net_; }

 private:
  /// One adjacency hop: a link and the router at its far end.
  struct Hop {
    std::uint32_t link;
    std::uint32_t peer;
  };
  /// One Dijkstra run from a source at one routing epoch: each router's
  /// distance, kUnreachable if not reached. ECMP predecessors are not
  /// stored; path walks derive them from these distances and the weights.
  using Distances = std::vector<int>;
  static constexpr int kUnreachable = std::numeric_limits<int>::max();

  /// A link weight as SPF reads it: kUnreachable when the link carries no
  /// traffic.
  static constexpr int spf_weight(int w) {
    return (w == kDown || w == kCostedOut) ? kUnreachable : w;
  }
  /// Memoized SPF: results are keyed by (src, weight-epoch) — see
  /// epoch_at(). The dominant query pattern (spatial projections repeatedly
  /// reconstructing paths around the same incidents) hits the cache. The
  /// cache is cleared on every set_weight.
  std::shared_ptr<const Distances> run_spf(topology::RouterId src,
                                           util::TimeSec time) const;
  /// Runs Dijkstra from src over the adjacency with the weights at `time`.
  Distances compute_spf(topology::RouterId src, util::TimeSec time) const;
  /// Walks every shortest path back from dst over distances computed at
  /// `time`'s epoch. A hop out of router v is an ECMP predecessor when its
  /// peer's distance plus the link's weight at `time` equals v's. Returns
  /// the routers on the paths (dst included, in walk order; empty if dst
  /// is unreachable); when `links` is set, appends each predecessor hop's
  /// link to it.
  std::vector<std::uint32_t> path_routers(
      const Distances& dist, topology::RouterId dst, util::TimeSec time,
      std::vector<topology::LogicalLinkId>* links = nullptr) const;

  const topology::Network& net_;
  /// Per-link ordered history of (time, weight); first entry is the initial
  /// weight at time -inf.
  std::vector<std::vector<std::pair<util::TimeSec, int>>> history_;
  /// Each link's spf_weight() before any change, and the links that have
  /// a change (in first-change order): an SPF run copies the former and
  /// looks up only the latter.
  std::vector<int> initial_weight_;
  std::vector<std::uint32_t> changed_links_;
  /// Router adjacency, built once from the Network: router r's hops are
  /// hops_[hop_begin_[r], hop_begin_[r + 1]).
  std::vector<std::uint32_t> hop_begin_;
  std::vector<Hop> hops_;
  std::vector<WeightChange> log_;
  /// Sorted distinct change instants, maintained eagerly by set_weight() so
  /// epoch_at() reads without locking.
  std::vector<util::TimeSec> epoch_times_;
  std::uint64_t epoch_generation_ = 0;
  /// Guards the memoization state below; compute_spf itself runs outside
  /// the lock (concurrent misses may duplicate work, which is harmless).
  mutable std::mutex cache_mutex_;
  mutable bool cache_enabled_ = true;
  mutable std::unordered_map<std::uint64_t, std::shared_ptr<const Distances>>
      spf_cache_;
  mutable std::atomic<std::uint64_t> spf_lookups_{0};
  mutable std::atomic<std::uint64_t> spf_runs_{0};
};

}  // namespace grca::routing
