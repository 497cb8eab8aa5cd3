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
  // Counting sort by router: one pass sizes each router's span, a second
  // fills the spans in record (utc) order.
  for (const NormalizedRecord& r : records_) {
    if (!r.router.empty()) ++router_spans_[r.router].second;
  }
  std::uint32_t end = 0;
  for (auto& [router, span] : router_spans_) {
    span.first = end;
    end += span.second;
    span.second = span.first;  // the fill cursor, until the pass below
  }
  by_router_.resize(end);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].router.empty()) continue;
    by_router_[router_spans_.find(records_[i].router)->second.second++] =
        static_cast<std::uint32_t>(i);
  }
}

std::vector<const NormalizedRecord*> RecordIndex::on_router(
    std::string_view router, util::TimeSec from, util::TimeSec to) const {
  std::vector<const NormalizedRecord*> out;
  // A name never interned is on no record.
  auto symbol = util::Symbol::find(router);
  if (!symbol) return out;
  auto it = router_spans_.find(*symbol);
  if (it == router_spans_.end()) return out;
  std::span<const std::uint32_t> idx(by_router_.data() + it->second.first,
                                     by_router_.data() + it->second.second);
  auto first = std::lower_bound(idx.begin(), idx.end(), from,
                                [this](std::uint32_t i, util::TimeSec v) {
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
