// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Memoization layer over the spatial model. LocationMapper::project() and
// ::joins() are pure functions of (location, join level, routing state over
// [t - kPathLookback, t]) — the routing simulators expose that state as
// monotone epoch counters (OspfSim::epoch_at / BgpSim::epoch_at), so the
// projection of an interned location is memoizable under an EpochStamp key.
// Results are exact, not approximate: a hit returns the value the mapper
// would compute, byte for byte, because the stamp pins every input the
// mapper reads. Diagnosis workloads evaluate the same (symptom location x
// candidate location) pairs thousands of times around one incident; this
// layer turns each repeat into a hash probe on integers.
//
// Threading: none. A memo belongs to one diagnosis worker (RcaEngine keeps
// one per worker index), so it holds no lock, atomic or size bound. What it
// shares with the other workers is internally synchronized: the
// LocationTable it interns projection results into and the mapper's SPF
// memo. The routing simulators must not be mutated while memos are in use
// (their standing replay-then-diagnose contract); the generation counters
// make stamps from before an out-of-order replay unmatchable rather than
// wrong.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/event.h"
#include "core/location.h"
#include "core/location_table.h"

namespace grca::core {

/// The routing state a projection at time t can depend on: the OSPF epochs
/// at t and t - kPathLookback (path projections union both instants) and
/// the BGP epoch at t (egress resolution; BGP's IGP tie-break also reads
/// OSPF at t, which ospf_at already pins). Locations whose projections are
/// time-independent (everything but the pair/endpoint types — see
/// LocationMapper::path_dependent) use the zero stamp, so their entries
/// survive routing changes.
struct EpochStamp {
  std::uint32_t ospf_before = 0;
  std::uint32_t ospf_at = 0;
  std::uint32_t bgp_at = 0;
  /// Sum of the simulators' epoch generations; renumbered epochs (out-of-
  /// order replay) change it, orphaning every stamped entry at once.
  std::uint32_t generation = 0;

  friend bool operator==(const EpochStamp&, const EpochStamp&) = default;
};

class JoinMemo {
 public:
  /// The memo reads (never mutates) `mapper` and interns projection
  /// results into `table` — normally the owning EventStore's table, so
  /// instance locations are already interned after warm(). Both must
  /// outlive the memo.
  JoinMemo(const LocationMapper& mapper, LocationTable& table);

  /// The interned id for an instance's location: its where_id when the
  /// owning store has been warmed, otherwise a table lookup/insert.
  LocId id_of(const EventInstance& instance) const {
    if (instance.where_id != kInvalidLocId) return instance.where_id;
    return table_.intern(instance.where);
  }

  /// Memoized LocationMapper::joins. Exact: equals the uncached call for
  /// every input.
  bool joins(LocId symptom, LocId diagnostic, LocationType level,
             util::TimeSec t);

  /// Memoized LocationMapper::project, as sorted distinct interned ids. The
  /// reference stays valid for the memo's lifetime.
  const std::vector<LocId>& project(LocId loc, LocationType level,
                                    util::TimeSec t);

  /// The stamp joins()/project() would key `t` with (for tests).
  EpochStamp stamp_at(util::TimeSec t) const noexcept;

  /// Probes answered from the memo and probes that called the mapper,
  /// since construction.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct ProjKey {
    LocId loc = kInvalidLocId;
    LocationType level = LocationType::kRouter;
    EpochStamp stamp;
    friend bool operator==(const ProjKey&, const ProjKey&) = default;
  };
  struct VerdictKey {
    LocId symptom = kInvalidLocId;
    LocId diagnostic = kInvalidLocId;
    LocationType level = LocationType::kRouter;
    EpochStamp stamp;
    friend bool operator==(const VerdictKey&, const VerdictKey&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const ProjKey& k) const noexcept;
    std::size_t operator()(const VerdictKey& k) const noexcept;
  };

  const std::vector<LocId>& project_stamped(LocId loc, LocationType level,
                                            util::TimeSec t,
                                            const EpochStamp& stamp);

  const LocationMapper& mapper_;
  LocationTable& table_;
  // Node-based maps: references to stored projections survive rehashing.
  std::unordered_map<ProjKey, std::vector<LocId>, KeyHash> projections_;
  std::unordered_map<VerdictKey, bool, KeyHash> verdicts_;
  Stats stats_;
};

}  // namespace grca::core
