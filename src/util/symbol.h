// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Interned strings. A Symbol is a 4-byte id into one process-wide,
// append-only string table, so a name that recurs in every record (a
// device, a router, an SNMP object, an attr key or value) is stored once
// and copied, hashed and tested for equality as an integer.
//
// The table only grows. Interning takes a mutex, unless the calling thread
// interned the same text recently: each thread keeps a small direct-mapped
// memo of its recent ids. Resolving an id to its text takes no lock,
// because the table's storage is a fixed ladder of chunks that are
// allocated once and never move. Ids are handed out in interning order,
// which depends on which thread and which record asked first, so an id
// carries no meaning beyond equality: ordering compares the strings the
// ids resolve to.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace grca::util {

namespace symbol_table {

inline constexpr int kFirstChunkBits = 10;
inline constexpr std::uint32_t kFirstChunk = 1u << kFirstChunkBits;
inline constexpr int kChunks = 32 - kFirstChunkBits;

/// Chunk k holds the texts of ids [kFirstChunk * (2^k - 1),
/// kFirstChunk * (2^(k+1) - 1)); a chunk's pointer is set once, before any
/// id in it is handed out.
extern std::array<std::atomic<std::string_view*>, kChunks> chunks;

}  // namespace symbol_table

class Symbol {
 public:
  /// The empty string, id 0.
  constexpr Symbol() noexcept = default;
  /// Interns `text`.
  explicit Symbol(std::string_view text) : id_(intern(text)) {}
  Symbol& operator=(std::string_view text) {
    id_ = intern(text);
    return *this;
  }

  /// The symbol of `text` when it is interned already; interns nothing.
  static std::optional<Symbol> find(std::string_view text);

  std::string_view view() const noexcept {
    using namespace symbol_table;
    const std::uint32_t slot = id_ + kFirstChunk;
    const int chunk = std::bit_width(slot) - (kFirstChunkBits + 1);
    return chunks[static_cast<std::size_t>(chunk)].load(
        std::memory_order_acquire)[slot - (kFirstChunk << chunk)];
  }
  std::string str() const { return std::string(view()); }
  bool empty() const noexcept { return id_ == 0; }
  std::uint32_t id() const noexcept { return id_; }

  /// Equal content, equal id.
  friend bool operator==(Symbol, Symbol) noexcept = default;
  friend bool operator==(Symbol a, std::string_view b) noexcept {
    return a.view() == b;
  }
  /// String order of the texts, never id order.
  friend std::strong_ordering operator<=>(Symbol a, Symbol b) noexcept {
    if (a.id_ == b.id_) return std::strong_ordering::equal;
    return a.view() <=> b.view();
  }

 private:
  static std::uint32_t intern(std::string_view text);

  std::uint32_t id_ = 0;
};

std::ostream& operator<<(std::ostream& out, Symbol symbol);

}  // namespace grca::util

template <>
struct std::hash<grca::util::Symbol> {
  std::size_t operator()(grca::util::Symbol s) const noexcept {
    return std::hash<std::uint32_t>{}(s.id());
  }
};
