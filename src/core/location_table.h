// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Location interning: every distinct Location seen in a run is mapped to a
// dense LocId exactly once, so the spatial-join hot path compares and hashes
// 32-bit integers instead of string triples. The EventStore interns every
// stored instance's location when it is warmed; each diagnosis worker's
// JoinMemo interns projection results on the fly.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "core/location.h"

namespace grca::core {

/// Dense identifier of an interned Location. Ids are only meaningful within
/// the LocationTable that issued them; assignment order is an artifact of
/// evaluation order and must never influence results (a JoinMemo only
/// relies on id equality <=> Location equality within one table).
using LocId = std::uint32_t;

/// "Not interned (yet)". EventInstance::where_id starts here; EventStore::add
/// resets it so ids issued by a foreign table (another store's) can never
/// leak across stores.
inline constexpr LocId kInvalidLocId = std::numeric_limits<LocId>::max();

/// Bidirectional Location <-> LocId map.
///
/// Threading: all members are safe to call concurrently (shared_mutex;
/// intern() takes it exclusively only on first sight of a location). Ids are
/// assigned contiguously from 0 and never change; at() returns a reference
/// that stays valid for the table's lifetime (deque storage — growth never
/// relocates elements).
class LocationTable {
 public:
  LocationTable() = default;
  LocationTable(const LocationTable&) = delete;
  LocationTable& operator=(const LocationTable&) = delete;

  /// The id for `loc`, inserting it on first sight.
  LocId intern(const Location& loc);

  /// The id for `loc` if it is already interned.
  std::optional<LocId> find(const Location& loc) const;

  /// The location behind an id issued by this table. The reference stays
  /// valid (and constant) for the table's lifetime.
  const Location& at(LocId id) const;

  LocationType type_of(LocId id) const { return at(id).type; }

  std::size_t size() const;

  /// A copy of every interned location in id order (element i is the
  /// location behind id i) — the export surface for the v2 columnar
  /// segment's location dictionary, which serializes a LocationTable
  /// verbatim so readers can rebuild LocId references by index.
  std::vector<Location> snapshot() const;

 private:
  mutable std::shared_mutex mutex_;
  std::deque<Location> by_id_;
  std::unordered_map<Location, LocId> ids_;
};

}  // namespace grca::core
