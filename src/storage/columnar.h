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
// of the block's slice in each variable-width column). A window query
// binary-searches the zone maps and never touches the bytes of a block
// whose [min_start, max_start] range misses the window; a per-name query
// touches only the runs of that name. Block-restarting deltas make every
// block independently decodable, so skipped means skipped.
//
// Integrity: the footer (dictionaries + zone maps) rides the sealed
// trailer's CRC; each run's column region additionally
// carries its own CRC32C, checked by verify_store (the query path is
// bounds-checked but does not re-checksum — see docs/STORAGE.md).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/event.h"

namespace grca::storage {

class SegmentReader;

/// Rows per v2 block (one zone-map entry each). A block is the unit a
/// query must walk even when it wants one row (variable-width columns
/// decode from the block start), and columnar rows are cheap enough that
/// 16-row blocks keep the zone maps ~3 bytes/row.
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
  util::TimeSec max_duration = 0;  // longest instance (query lower bound)
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

/// Decodes rows [first, last) of `run` in stored order, passing each
/// materialized event to `sink(row_index, event, location_dict_id)` — the
/// third argument is the row's id into V2Footer::locations, so callers can
/// translate via a precomputed dictionary map instead of re-hashing the
/// Location. When `want` is non-empty, rows in range for which it returns
/// false are skipped exactly like out-of-range rows: their variable-width
/// cursors advance but no event is built (the basis of filter-before-
/// materialize queries). Bounds-checked: corrupt column bytes throw
/// StorageError, never fault. `segment_bytes` is the whole mapped file.
void decode_v2_rows(std::span<const std::uint8_t> segment_bytes,
                    const V2Footer& footer, const V2Run& run,
                    std::uint64_t first, std::uint64_t last,
                    const std::function<void(std::uint64_t,
                                             core::EventInstance,
                                             core::LocId)>& sink,
                    const std::function<bool(std::uint64_t)>& want = {});

/// Decodes only the timestamp columns of blocks [first_block, last_block)
/// into caller-provided contiguous arrays indexed by row: starts[i] and
/// ends[i] (= start + duration). This is the cheap tier a window query
/// scans allocation-free before materializing any row.
void decode_v2_timestamps(std::span<const std::uint8_t> segment_bytes,
                          const V2Run& run, std::size_t first_block,
                          std::size_t last_block, util::TimeSec* starts,
                          util::TimeSec* ends);

}  // namespace grca::storage
