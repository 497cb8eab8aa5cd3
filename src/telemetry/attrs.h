// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// A record's attrs: a small map of interned keys to interned values. Most
// sources carry at most two pairs (SNMP's interface, TACACS's user, the
// perf and CDN monitors' endpoints), which fit inline with no heap; more
// (bgpmon's six) spill to one heap array. Pairs are kept in key string
// order, so iteration, equality and ordering read like a
// std::map<std::string, std::string>'s.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <utility>

#include "util/symbol.h"

namespace grca::telemetry {

class Attrs {
 public:
  /// (key, value).
  using value_type = std::pair<util::Symbol, util::Symbol>;
  using const_iterator = const value_type*;
  using iterator = const_iterator;

  Attrs() noexcept : local_{} {}
  /// Last-wins on a repeated key, like the map's insertion.
  Attrs(std::initializer_list<std::pair<std::string_view, std::string_view>>
            pairs);
  Attrs(const Attrs& other);
  Attrs(Attrs&& other) noexcept;
  Attrs& operator=(const Attrs& other);
  Attrs& operator=(Attrs&& other) noexcept;
  ~Attrs() { release(); }

  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Room for `n` pairs without another allocation.
  void reserve(std::size_t n);

  /// By id: no string is compared.
  const_iterator find(util::Symbol key) const noexcept;
  /// The value of `key`; throws std::out_of_range when there is none.
  util::Symbol at(std::string_view key) const;
  /// The value of `key`, inserted empty at its key-order place if missing.
  util::Symbol& operator[](util::Symbol key);
  util::Symbol& operator[](std::string_view key) {
    return (*this)[util::Symbol(key)];
  }

  friend bool operator==(const Attrs& a, const Attrs& b) noexcept;
  /// Lexicographic over (key, value) text pairs, as the map's.
  friend std::strong_ordering operator<=>(const Attrs& a,
                                          const Attrs& b) noexcept;

 private:
  static constexpr std::uint32_t kInline = 2;

  bool spilled() const noexcept { return cap_ > kInline; }
  value_type* data() noexcept { return spilled() ? heap_ : local_; }
  const value_type* data() const noexcept {
    return spilled() ? heap_ : local_;
  }
  void release() noexcept {
    if (spilled()) delete[] heap_;
  }

  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;
  union {
    value_type local_[kInline];
    value_type* heap_;
  };
};

}  // namespace grca::telemetry
