// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "telemetry/attrs.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

namespace grca::telemetry {

using util::Symbol;

Attrs::Attrs(
    std::initializer_list<std::pair<std::string_view, std::string_view>> pairs)
    : local_{} {
  for (const auto& [key, value] : pairs) (*this)[Symbol(key)] = Symbol(value);
}

Attrs::Attrs(const Attrs& other) : local_{} {
  reserve(other.size_);
  std::copy(other.begin(), other.end(), data());
  size_ = other.size_;
}

Attrs::Attrs(Attrs&& other) noexcept : local_{} {
  if (other.spilled()) {
    heap_ = other.heap_;
    cap_ = other.cap_;
    other.cap_ = kInline;
    for (value_type& p : other.local_) std::construct_at(&p);
  } else {
    std::copy(other.local_, other.local_ + other.size_, local_);
  }
  size_ = other.size_;
  other.size_ = 0;
}

Attrs& Attrs::operator=(const Attrs& other) {
  if (this == &other) return *this;
  if (other.size_ > cap_) {
    release();
    cap_ = kInline;
    for (value_type& p : local_) std::construct_at(&p);
    size_ = 0;
    reserve(other.size_);
  }
  std::copy(other.begin(), other.end(), data());
  size_ = other.size_;
  return *this;
}

Attrs& Attrs::operator=(Attrs&& other) noexcept {
  if (this == &other) return *this;
  release();
  if (other.spilled()) {
    heap_ = other.heap_;
    cap_ = other.cap_;
    other.cap_ = kInline;
    for (value_type& p : other.local_) std::construct_at(&p);
  } else {
    if (spilled()) {
      cap_ = kInline;
      for (value_type& p : local_) std::construct_at(&p);
    }
    std::copy(other.local_, other.local_ + other.size_, local_);
  }
  size_ = other.size_;
  other.size_ = 0;
  return *this;
}

void Attrs::reserve(std::size_t n) {
  if (n <= cap_) return;
  auto* grown = new value_type[n];
  std::copy(begin(), end(), grown);
  release();
  heap_ = grown;
  cap_ = static_cast<std::uint32_t>(n);
}

Attrs::const_iterator Attrs::find(Symbol key) const noexcept {
  return std::find_if(begin(), end(),
                      [key](const value_type& p) { return p.first == key; });
}

Symbol Attrs::at(std::string_view key) const {
  auto it = std::find_if(begin(), end(), [key](const value_type& p) {
    return p.first == key;
  });
  if (it == end()) {
    throw std::out_of_range("Attrs::at: no key '" + std::string(key) + "'");
  }
  return it->second;
}

Symbol& Attrs::operator[](Symbol key) {
  value_type* first = data();
  value_type* last = first + size_;
  for (value_type* p = first; p != last; ++p) {
    if (p->first == key) return p->second;
  }
  // Pairs mostly arrive in key order (to_tsv writes them so): try the end
  // before searching.
  value_type* pos = last;
  if (size_ > 0 && key < last[-1].first) {
    pos = std::lower_bound(first, last, key,
                           [](const value_type& p, Symbol k) {
                             return p.first < k;
                           });
  }
  const auto at = static_cast<std::size_t>(pos - first);
  if (size_ == cap_) reserve(2 * std::size_t{cap_});
  first = data();
  std::move_backward(first + at, first + size_, first + size_ + 1);
  first[at] = value_type(key, Symbol());
  ++size_;
  return first[at].second;
}

bool operator==(const Attrs& a, const Attrs& b) noexcept {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

std::strong_ordering operator<=>(const Attrs& a, const Attrs& b) noexcept {
  return std::lexicographical_compare_three_way(a.begin(), a.end(), b.begin(),
                                                b.end());
}

}  // namespace grca::telemetry
