// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Segment files — the unit of persistence in the event store
// (docs/STORAGE.md has the full byte diagram).
//
// Every segment starts with a fixed checksummed header (magic, format
// version, kind, sequence number). The version follows the kind:
//
//  - LIVE (write-ahead) segments are v1: header + CRC-framed rows in append
//    order, no footer. A crash can tear the tail; the WAL reader
//    (storage::read_wal) scans the frames and keeps the valid prefix.
//  - SEALED segments are v2 columnar (storage/columnar.h): per-name column
//    regions followed by a footer of dictionaries and zone maps. The footer
//    ends with a fixed trailer (length, CRC32C, magic) that must validate.
//
// Any other version/kind pairing (a v1 sealed segment from before the
// columnar format, a v2 live segment) is rejected at open.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/event.h"
#include "storage/columnar.h"

namespace grca::storage {

inline constexpr std::uint32_t kSegmentMagic = 0x53435247;   // "GRCS"
inline constexpr std::uint32_t kFooterMagic = 0x46435247;    // "GRCF"
inline constexpr std::uint16_t kFormatV1 = 1;
inline constexpr std::uint16_t kFormatV2 = 2;
inline constexpr std::size_t kSegmentHeaderBytes = 24;
inline constexpr std::size_t kFooterTrailerBytes = 16;

enum class SegmentKind : std::uint16_t { kLive = 0, kSealed = 1 };

/// Serialized fixed header for a new segment file: kFormatV1 for a live
/// (WAL) segment, kFormatV2 for a sealed one.
std::vector<std::uint8_t> encode_segment_header(std::uint64_t seq,
                                                SegmentKind kind);

/// A validated segment file, read whole into memory. Opening throws
/// StorageError when the header is damaged (wrong magic, header CRC
/// mismatch, a version/kind pair other than v1 live or v2 sealed) or when a
/// sealed segment's footer does not validate. Read-only: never mutates the
/// file.
class SegmentReader {
 public:
  static SegmentReader open(const std::filesystem::path& path);

  bool sealed() const noexcept { return sealed_; }
  std::uint64_t seq() const noexcept { return seq_; }
  const std::filesystem::path& path() const noexcept { return path_; }
  /// Sealed footer; throws StorageError unless sealed.
  const V2Footer& v2_footer() const;
  std::span<const std::uint8_t> bytes() const noexcept { return bytes_; }
  std::uint64_t size() const noexcept { return bytes_.size(); }

  /// True when the column region of `run`, one of this sealed segment's
  /// footer runs, matches its CRC32C.
  bool region_intact(const V2Run& run) const;

  /// Passes every event of a *sealed* segment to `sink` in stored order (a
  /// full columnar decode, each run's column region checked against its
  /// CRC32C first). Unlike a WAL's frames (read_wal), any damage throws
  /// StorageError naming the file and run — a sealed segment has no
  /// legitimate torn tail; rows of earlier runs have reached the sink by
  /// then. A row that ends before it starts counts as damage even under a
  /// valid checksum.
  void for_each_event(
      const std::function<void(core::EventInstance)>& sink) const;

 private:
  std::filesystem::path path_;
  std::vector<std::uint8_t> bytes_;
  std::uint64_t seq_ = 0;
  bool sealed_ = false;
  V2Footer v2_footer_;
};

}  // namespace grca::storage
