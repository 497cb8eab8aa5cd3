// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "core/event_store.h"

#include <algorithm>

#include "obs/export.h"

namespace grca::core {

void EventStore::add(EventInstance instance) {
  if (finalized_) {
    throw ConfigError("EventStore: add(" + instance.name +
                      ") after finalize()");
  }
  if (!instance.when.valid()) {
    throw ConfigError("EventStore: invalid interval for " + instance.name);
  }
  // An incoming instance may carry an id issued by another store's table
  // (e.g. one read back from a persisted segment); ids never transfer
  // across tables.
  instance.where_id = kInvalidLocId;
  Bucket& b = buckets_[instance.name];
  if (metrics_ && !b.counter) {
    b.counter = &metrics_->counter(
        obs::prometheus_label("grca_events_total", "event", instance.name));
  }
  if (b.counter) b.counter->inc();
  b.max_duration = std::max(b.max_duration, instance.when.duration());
  // An instance that does not start before the bucket's last one keeps a
  // clean bucket sorted (a stable sort would leave it at the back), so a
  // store fed in start order never sorts.
  if (!b.items.empty() && instance.when.start < b.items.back().when.start) {
    b.dirty = true;
  }
  b.items.push_back(std::move(instance));
  ++total_;
}

void EventStore::ensure_sorted(const Bucket& bucket) const {
  if (!bucket.dirty) return;
  Bucket& b = const_cast<Bucket&>(bucket);
  std::stable_sort(b.items.begin(), b.items.end(),
                   [](const EventInstance& x, const EventInstance& y) {
                     return x.when.start < y.when.start;
                   });
  b.dirty = false;
  b.interned = 0;  // interned instances moved: warm() rescans the bucket
}

void EventStore::warm() const {
  for (const auto& [name, bucket] : buckets_) {
    ensure_sorted(bucket);
    if (bucket.interned == bucket.items.size()) continue;
    // Without a sort since the last warm(), new instances are exactly the
    // tail [interned, size). A sort reset `interned` to 0, since it
    // interleaves new instances anywhere; already interned ones then cost
    // one integer compare.
    Bucket& b = const_cast<Bucket&>(bucket);
    for (std::size_t i = b.interned; i < b.items.size(); ++i) {
      EventInstance& e = b.items[i];
      if (e.where_id == kInvalidLocId) e.where_id = locations_->intern(e.where);
    }
    b.interned = b.items.size();
  }
}

void EventStore::finalize() {
  warm();
  finalized_ = true;
}

std::vector<const EventInstance*> EventStore::query(const std::string& name,
                                                    util::TimeSec from,
                                                    util::TimeSec to) const {
  std::vector<const EventInstance*> out;
  query_into(name, from, to, out);
  return out;
}

std::size_t EventStore::query_into(
    const std::string& name, util::TimeSec from, util::TimeSec to,
    std::vector<const EventInstance*>& out) const {
  out.clear();
  auto it = buckets_.find(name);
  if (it == buckets_.end()) return 0;
  const Bucket& b = it->second;
  ensure_sorted(b);
  util::TimeSec lo = from - b.max_duration;
  auto first = std::lower_bound(
      b.items.begin(), b.items.end(), lo,
      [](const EventInstance& e, util::TimeSec v) { return e.when.start < v; });
  auto last = std::upper_bound(
      first, b.items.end(), to,
      [](util::TimeSec v, const EventInstance& e) { return v < e.when.start; });
  // [first, last) is the candidate range; the end-time filter below only
  // shrinks it, so its size is the natural reserve bound.
  out.reserve(static_cast<std::size_t>(last - first));
  for (auto i = first; i != last; ++i) {
    if (i->when.end >= from) out.push_back(&*i);
  }
  return out.size();
}

std::vector<const EventInstance*> EventStore::query(
    const std::string& name, util::TimeSec from, util::TimeSec to,
    const std::function<bool(const EventInstance&)>& pred) const {
  std::vector<const EventInstance*> out;
  auto it = buckets_.find(name);
  if (it == buckets_.end()) return out;
  const Bucket& b = it->second;
  ensure_sorted(b);
  // Overlap requires start <= to and end >= from; since end <= start +
  // max_duration, any overlapping instance has start >= from - max_duration.
  util::TimeSec lo = from - b.max_duration;
  auto first = std::lower_bound(
      b.items.begin(), b.items.end(), lo,
      [](const EventInstance& e, util::TimeSec v) { return e.when.start < v; });
  for (auto i = first; i != b.items.end() && i->when.start <= to; ++i) {
    if (i->when.end >= from && pred(*i)) out.push_back(&*i);
  }
  return out;
}

std::span<const EventInstance> EventStore::all(const std::string& name) const {
  auto it = buckets_.find(name);
  if (it == buckets_.end()) return {};
  ensure_sorted(it->second);
  return it->second.items;
}

std::vector<std::string> EventStore::event_names() const {
  std::vector<std::string> out;
  out.reserve(buckets_.size());
  for (const auto& [name, bucket] : buckets_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace grca::core
