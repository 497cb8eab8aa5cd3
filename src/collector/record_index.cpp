// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "collector/record_index.h"

#include <algorithm>

namespace grca::collector {

RecordIndex::RecordIndex(std::vector<NormalizedRecord> records)
    : records_(std::move(records)) {
  auto by_utc = [](const NormalizedRecord& a, const NormalizedRecord& b) {
    return a.utc < b.utc;
  };
  // Normalizer::normalize_stream output is already in utc order; moving
  // every record through a merge sort again would cost a third of ingest.
  if (!std::is_sorted(records_.begin(), records_.end(), by_utc)) {
    std::stable_sort(records_.begin(), records_.end(), by_utc);
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (!records_[i].router.empty()) {
      by_router_[records_[i].router].push_back(i);
    }
  }
}

std::vector<const NormalizedRecord*> RecordIndex::on_router(
    const std::string& router, util::TimeSec from, util::TimeSec to) const {
  std::vector<const NormalizedRecord*> out;
  auto it = by_router_.find(router);
  if (it == by_router_.end()) return out;
  const auto& idx = it->second;
  auto first = std::lower_bound(idx.begin(), idx.end(), from,
                                [this](std::size_t i, util::TimeSec v) {
                                  return records_[i].utc < v;
                                });
  for (auto i = first; i != idx.end() && records_[*i].utc <= to; ++i) {
    out.push_back(&records_[*i]);
  }
  return out;
}

std::vector<const NormalizedRecord*> RecordIndex::in_window(
    util::TimeSec from, util::TimeSec to) const {
  std::vector<const NormalizedRecord*> out;
  auto first = std::lower_bound(
      records_.begin(), records_.end(), from,
      [](const NormalizedRecord& r, util::TimeSec v) { return r.utc < v; });
  for (auto i = first; i != records_.end() && i->utc <= to; ++i) {
    out.push_back(&*i);
  }
  return out;
}

}  // namespace grca::collector
