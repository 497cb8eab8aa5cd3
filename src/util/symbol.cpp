// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "util/symbol.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

namespace grca::util {

namespace symbol_table {
namespace {
// Chunk 0 is static, so id 0 (the empty string) resolves before anything
// is interned.
std::string_view first_chunk[kFirstChunk];
}  // namespace

constinit std::array<std::atomic<std::string_view*>, kChunks> chunks{
    {first_chunk}};

}  // namespace symbol_table

namespace {

using namespace symbol_table;

/// Bytes of string text allocated at a time.
constexpr std::size_t kTextBlockBytes = 64 * 1024;

/// Slots of each thread's memo of recent symbols (a power of two).
constexpr std::size_t kRecentSlots = 4096;

/// The writer side of the table, behind one mutex.
struct Interner {
  std::mutex mu;
  std::unordered_map<std::string_view, std::uint32_t> ids;  // views of text
  std::uint32_t size = 1;  // id 0 is the empty string
  char* block = nullptr;   // free text bytes in the current block
  std::size_t block_left = 0;

  /// A stable copy of `text`.
  std::string_view keep(std::string_view text) {
    if (text.size() > block_left) {
      block_left = std::max(kTextBlockBytes, text.size());
      block = new char[block_left];
    }
    std::memcpy(block, text.data(), text.size());
    std::string_view kept(block, text.size());
    block += text.size();
    block_left -= text.size();
    return kept;
  }
};

/// Never destroyed, like everything it allocates: symbols stay valid in
/// static destructors.
Interner& interner() {
  static Interner* const table = new Interner;
  return *table;
}

}  // namespace

std::uint32_t Symbol::intern(std::string_view text) {
  if (text.empty()) return 0;
  // This thread's recently interned ids, direct-mapped by text hash: a name
  // met again (most of a parser's) costs a hash and a compare, no lock.
  thread_local std::array<Symbol, kRecentSlots> recent{};
  Symbol& memo =
      recent[std::hash<std::string_view>{}(text) & (kRecentSlots - 1)];
  if (memo.view() == text) return memo.id_;
  Interner& t = interner();
  std::lock_guard lock(t.mu);
  if (auto it = t.ids.find(text); it != t.ids.end()) {
    memo.id_ = it->second;
    return it->second;
  }
  const std::uint32_t id = t.size;
  if (id > std::numeric_limits<std::uint32_t>::max() - kFirstChunk) {
    throw std::length_error("symbol table is full");
  }
  const std::uint32_t slot = id + kFirstChunk;
  const int chunk = std::bit_width(slot) - (kFirstChunkBits + 1);
  auto& entries_at = chunks[static_cast<std::size_t>(chunk)];
  std::string_view* entries = entries_at.load(std::memory_order_relaxed);
  if (entries == nullptr) {
    entries = new std::string_view[std::size_t{kFirstChunk} << chunk];
    entries_at.store(entries, std::memory_order_release);
  }
  const std::string_view kept = t.keep(text);
  entries[slot - (kFirstChunk << chunk)] = kept;
  t.ids.emplace(kept, id);
  ++t.size;
  memo.id_ = id;
  return id;
}

std::optional<Symbol> Symbol::find(std::string_view text) {
  if (text.empty()) return Symbol();
  Interner& t = interner();
  std::lock_guard lock(t.mu);
  auto it = t.ids.find(text);
  if (it == t.ids.end()) return std::nullopt;
  Symbol s;
  s.id_ = it->second;
  return s;
}

std::ostream& operator<<(std::ostream& out, Symbol symbol) {
  return out << symbol.view();
}

}  // namespace grca::util
