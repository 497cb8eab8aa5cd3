// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "core/join_memo.h"

#include <algorithm>

namespace grca::core {

namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  // splitmix64 finalizer: cheap and well distributed for bucket indexing.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t stamp_bits(const EpochStamp& s) noexcept {
  return (static_cast<std::uint64_t>(s.ospf_before) << 32 | s.ospf_at) ^
         mix64(static_cast<std::uint64_t>(s.bgp_at) << 32 | s.generation);
}

/// Sorted distinct id vectors: any element in common?
bool intersects(const std::vector<LocId>& a,
                const std::vector<LocId>& b) noexcept {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

std::size_t JoinMemo::KeyHash::operator()(const ProjKey& k) const noexcept {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(k.loc) << 8 |
                          static_cast<std::uint64_t>(k.level));
  return static_cast<std::size_t>(h ^ mix64(stamp_bits(k.stamp)));
}

std::size_t JoinMemo::KeyHash::operator()(const VerdictKey& k) const noexcept {
  std::uint64_t pair = static_cast<std::uint64_t>(k.symptom) << 32 |
                       static_cast<std::uint64_t>(k.diagnostic);
  std::uint64_t h = mix64(pair) ^
                    mix64(stamp_bits(k.stamp) + static_cast<std::uint64_t>(
                                                    k.level));
  return static_cast<std::size_t>(h);
}

JoinMemo::JoinMemo(const LocationMapper& mapper, LocationTable& table)
    : mapper_(mapper), table_(table) {}

EpochStamp JoinMemo::stamp_at(util::TimeSec t) const noexcept {
  const routing::OspfSim& ospf = mapper_.ospf();
  const routing::BgpSim& bgp = mapper_.bgp();
  EpochStamp s;
  s.ospf_before = static_cast<std::uint32_t>(
      ospf.epoch_at(t - LocationMapper::kPathLookback));
  s.ospf_at = static_cast<std::uint32_t>(ospf.epoch_at(t));
  s.bgp_at = static_cast<std::uint32_t>(bgp.epoch_at(t));
  s.generation = static_cast<std::uint32_t>(ospf.epoch_generation() +
                                            bgp.epoch_generation());
  return s;
}

const std::vector<LocId>& JoinMemo::project(LocId loc, LocationType level,
                                            util::TimeSec t) {
  const EpochStamp stamp = LocationMapper::path_dependent(table_.type_of(loc))
                               ? stamp_at(t)
                               : EpochStamp{};
  return project_stamped(loc, level, t, stamp);
}

const std::vector<LocId>& JoinMemo::project_stamped(LocId loc,
                                                    LocationType level,
                                                    util::TimeSec t,
                                                    const EpochStamp& stamp) {
  ProjKey key{loc, level, stamp};
  if (auto it = projections_.find(key); it != projections_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  std::vector<Location> raw = mapper_.project(table_.at(loc), level, t);
  std::vector<LocId> ids;
  ids.reserve(raw.size());
  for (const Location& l : raw) ids.push_back(table_.intern(l));
  std::sort(ids.begin(), ids.end());
  return projections_.emplace(key, std::move(ids)).first->second;
}

bool JoinMemo::joins(LocId symptom, LocId diagnostic, LocationType level,
                     util::TimeSec t) {
  const bool s_dep = LocationMapper::path_dependent(table_.type_of(symptom));
  const bool d_dep = LocationMapper::path_dependent(table_.type_of(diagnostic));
  // The verdict depends on routing state only through the path-dependent
  // side(s); with both sides static the zero stamp lets the verdict survive
  // every routing change.
  const EpochStamp stamp = (s_dep || d_dep) ? stamp_at(t) : EpochStamp{};
  VerdictKey key{symptom, diagnostic, level, stamp};
  if (auto it = verdicts_.find(key); it != verdicts_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  // Matches LocationMapper::joins exactly: empty symptom projection never
  // joins; otherwise any common projected location at `level` does.
  const std::vector<LocId>& s =
      project_stamped(symptom, level, t, s_dep ? stamp : EpochStamp{});
  const bool verdict =
      !s.empty() &&
      intersects(s, project_stamped(diagnostic, level, t,
                                    d_dep ? stamp : EpochStamp{}));
  verdicts_.emplace(key, verdict);
  return verdict;
}

}  // namespace grca::core
