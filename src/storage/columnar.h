// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The columnar sealed-block format, v2 (docs/STORAGE.md has the byte
// diagram). Where the WAL stores one CRC-framed row-oriented record per
// event, a sealed segment stores each name run as four contiguous
// per-column buffers —
//
//   starts     block-restarting delta encoding: the block's first start as
//              a raw i64, then LEB128 deltas (runs are sorted by start, so
//              deltas are non-negative and short)
//   durations  zigzag LEB128 (end - start; the codec never assumes a sign)
//   locations  fixed-width u32 LocId per row into the segment's location
//              dictionary (a serialized core::LocationTable snapshot)
//   attrs      per row: LEB128 pair count, then (key, value) references
//              into the segment's string dictionary
//
// — and the footer carries, per block of kV2BlockRows rows, a zone map
// (min/max start, min/max location id, a name bitmap, and the byte offset
// of the block's slice in each variable-width column). Block-restarting
// deltas make every block independently decodable. Readers decode whole
// runs; the zone maps are what `store verify --deep` recomputes and
// `store inspect` prints.
//
// Integrity: the footer (dictionaries + zone maps) rides the sealed
// trailer's CRC; each run's column region additionally carries its own
// CRC32C, checked before every full decode (SegmentReader::read_all_events,
// verify_store). The decoder itself is bounds-checked besides.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/event.h"

namespace grca::storage {

/// Rows per v2 block (one zone-map entry each). Variable-width columns
/// decode from a block's start, and 16-row blocks keep the zone maps
/// ~3 bytes/row.
inline constexpr std::uint32_t kV2BlockRows = 16;

/// Zone map + column slice directory for one block of kV2BlockRows rows.
struct V2Block {
  util::TimeSec min_start = 0;  // first row's start (rows sorted by start)
  util::TimeSec max_start = 0;  // last row's start
  core::LocId loc_min = 0;      // smallest / largest location id in the
  core::LocId loc_max = 0;      //   block (dictionary ids, dense from 0)
  std::uint64_t name_bitmap = 0;  // 1 << (name_id % 64); single-name blocks
                                  // today, defined as a union for forward
                                  // compatibility with mixed-name blocks
  // Byte offsets of this block's slice, relative to the respective column
  // buffer's start. The fixed-width location column needs none (row * 4).
  std::uint64_t starts_off = 0;
  std::uint64_t durs_off = 0;
  std::uint64_t attrs_off = 0;
};

/// Footer directory entry for one name's columnar run.
struct V2Run {
  std::uint32_t name_id = 0;       // into V2Footer::names
  std::uint64_t count = 0;         // rows
  util::TimeSec max_duration = 0;  // longest instance
  std::uint64_t region_off = 0;    // absolute file offset of the region
  // Column buffer lengths; the region is [starts][durations][locs][attrs]
  // and region_len() must tile the file between neighbouring runs.
  std::uint64_t starts_len = 0;
  std::uint64_t durs_len = 0;
  std::uint64_t locs_len = 0;  // always 4 * count
  std::uint64_t attrs_len = 0;
  std::uint32_t region_crc = 0;  // CRC32C over the whole column region
  std::uint32_t block_rows = kV2BlockRows;
  std::vector<V2Block> blocks;  // ceil(count / block_rows) zone maps

  std::uint64_t region_len() const noexcept {
    return starts_len + durs_len + locs_len + attrs_len;
  }
};

struct V2Footer {
  util::TimeSec watermark = 0;
  std::uint64_t event_count = 0;
  std::vector<std::string> names;          // sorted; name_id = index
  std::vector<core::Location> locations;   // LocationTable snapshot, id order
  std::vector<std::string> strings;        // attr key/value dictionary
  std::vector<V2Run> runs;                 // name_id order
};

/// Builds the full byte image of a v2 sealed segment. `groups` must be
/// sorted by name with each group's instances sorted by start — the builder
/// trusts the order (callers: EventLogWriter::seal, write_sealed_store and
/// the compactor, all of which sort first). Row order inside a group is
/// preserved verbatim (the basis of byte-identical reads across backends).
std::vector<std::uint8_t> encode_sealed_segment_v2(
    std::uint64_t seq, util::TimeSec watermark,
    const std::vector<
        std::pair<std::string, std::vector<const core::EventInstance*>>>&
        groups);

/// Serializes the v2 footer payload (what the sealed trailer checksums).
std::vector<std::uint8_t> encode_v2_footer(const V2Footer& footer);

/// Decodes a v2 footer payload; throws StorageError on any structural
/// inconsistency (bad dictionary ids, non-monotone zone maps, lengths that
/// do not tile).
V2Footer decode_v2_footer(std::span<const std::uint8_t> payload);

/// Decodes every row of `run` in stored order, passing each event to
/// `sink(event, location_dict_id)` — the second argument is the row's id
/// into V2Footer::locations, which deep verification checks against the
/// zone maps. Bounds-checked: corrupt column bytes throw StorageError,
/// never fault. `segment_bytes` is the whole mapped file.
void decode_v2_rows(
    std::span<const std::uint8_t> segment_bytes, const V2Footer& footer,
    const V2Run& run,
    const std::function<void(core::EventInstance, core::LocId)>& sink);

}  // namespace grca::storage
