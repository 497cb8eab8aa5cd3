// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// A monotone integer priority queue: the queue behind OspfSim's Dijkstra,
// whose popped distances never decrease.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace grca::routing {

/// A radix heap of (key, value) pairs whose popped keys never decrease. Each
/// item sits in the bucket of the highest bit in which its key differs from
/// the last popped key (bucket 0: equal). A pop from an empty bucket 0 takes
/// the minimum of the lowest non-empty bucket as the new last key and
/// spreads that bucket over lower ones, so each item moves at most 32 times.
/// Equal keys pop in no fixed order.
class RadixHeap {
 public:
  using Item = std::pair<std::uint32_t, std::uint32_t>;  // (key, value)

  /// Empties the queue and resets the last popped key to 0; the buckets
  /// keep their capacity for reuse.
  void clear() {
    for (std::vector<Item>& b : buckets_) b.clear();
    size_ = 0;
    last_ = 0;
  }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// `key` must not be below the last popped key.
  void push(std::uint32_t key, std::uint32_t value) {
    buckets_[bucket_of(key)].emplace_back(key, value);
    ++size_;
  }

  /// Removes and returns an item with the smallest key; the queue must not
  /// be empty.
  Item pop() {
    if (buckets_[0].empty()) {
      std::size_t i = 1;
      while (buckets_[i].empty()) ++i;
      std::vector<Item>& from = buckets_[i];
      last_ = std::min_element(from.begin(), from.end())->first;
      for (const Item& item : from) {
        buckets_[bucket_of(item.first)].push_back(item);
      }
      from.clear();
    }
    Item top = buckets_[0].back();
    buckets_[0].pop_back();
    --size_;
    return top;
  }

 private:
  std::size_t bucket_of(std::uint32_t key) const noexcept {
    return static_cast<std::size_t>(std::bit_width(key ^ last_));
  }

  std::array<std::vector<Item>, 33> buckets_;
  std::size_t size_ = 0;
  std::uint32_t last_ = 0;
};

}  // namespace grca::routing
