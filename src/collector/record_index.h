// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The Data Collector's record store: normalized records indexed for the
// (device × time-window) queries that power the Result Browser's drill-down
// ("explore additional information such as syslog messages and workflow
// logs that appear on the same router or location as the event being
// analyzed", paper §IV-B).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "collector/normalized.h"

namespace grca::collector {

class RecordIndex {
 public:
  /// Takes ownership of records (any order; records with equal utc keep
  /// their relative order). Input already in utc order is not re-sorted.
  explicit RecordIndex(std::vector<NormalizedRecord> records);

  /// Records on `router` within [from, to], time-ordered.
  std::vector<const NormalizedRecord*> on_router(std::string_view router,
                                                 util::TimeSec from,
                                                 util::TimeSec to) const;

  /// All records within [from, to], time-ordered.
  std::vector<const NormalizedRecord*> in_window(util::TimeSec from,
                                                 util::TimeSec to) const;

  std::span<const NormalizedRecord> all() const noexcept { return records_; }
  std::size_t size() const noexcept { return records_.size(); }

 private:
  std::vector<NormalizedRecord> records_;  // sorted by utc
  /// Indices into records_, grouped by router and time-ordered per router.
  std::vector<std::uint32_t> by_router_;
  /// router -> its [begin, end) in by_router_
  std::unordered_map<util::Symbol, std::pair<std::uint32_t, std::uint32_t>>
      router_spans_;
};

}  // namespace grca::collector
