// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The segmented event log: a directory of segment files plus the writer
// that grows it.
//
//   <dir>/seg-000001.grseg   sealed segments, in sequence order
//   <dir>/seg-000002.grseg
//   <dir>/wal.grseg          the live write-ahead segment (may be absent)
//
// Appends go to the WAL as whole frames, one write per append call
// (crash-safe: a torn tail is truncated on the next open). seal() rewrites
// everything pending as a new sealed columnar segment — written to a temp
// file and renamed, so a crash mid-seal leaves either the old state or the
// new, never a half segment — and resets the WAL in place: truncate, then
// write the new header, so a crash between the two leaves a WAL torn
// inside its header, which every reader treats as empty. The sealed-segment
// watermark records the stream time up to which the writer's producer had
// finalized events; a restarted streaming engine resumes from the newest
// sealed watermark.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/event.h"
#include "core/event_store.h"
#include "obs/metrics.h"
#include "storage/io.h"
#include "storage/segment.h"

namespace grca::storage {

inline constexpr const char* kWalName = "wal.grseg";
inline constexpr const char* kSegmentExtension = ".grseg";

/// Sealed segment paths under `dir`, sorted by sequence number (the file
/// name embeds it). The WAL is not included.
std::vector<std::filesystem::path> list_segments(
    const std::filesystem::path& dir);

/// Appends events to the log's WAL and periodically seals them into
/// columnar segments. Single-writer by design (the ingest thread).
class EventLogWriter {
 public:
  /// Opens (creating if needed) the log at `dir`. An existing WAL is
  /// recovered: the valid frame prefix is either re-adopted as pending
  /// (discard_wal = false — a batch writer continuing an interrupted
  /// append) or dropped (discard_wal = true — the streaming engine, which
  /// resumes strictly from the last *sealed* segment and re-derives the
  /// tail from its feed). Torn bytes are counted into the
  /// `grca_storage_recovered_bytes` metric either way.
  explicit EventLogWriter(const std::filesystem::path& dir,
                          bool discard_wal = false);

  /// Write-ahead append: encodes one frame per event, in span order, and
  /// writes them all with one write call. When this returns every frame is
  /// on the WAL file (no user-space buffer holds any of them), so a reader
  /// that opens the log sees them; a crash mid-write leaves a whole-frame
  /// prefix plus a torn tail. Single events pass a one-element span.
  void append(std::span<const core::EventInstance> events);

  /// Seals everything pending (recovered + appended since the last seal)
  /// into columnar segment `seq = last+1`, grouped by name and sorted by
  /// start, with `watermark` recorded in the footer; then resets the WAL
  /// on its open descriptor (truncate, then write the new header). A seal
  /// with nothing pending still writes an (empty) segment — it records
  /// watermark progress, which resume depends on across quiet intervals;
  /// compaction folds empty segments away. Returns the new sequence
  /// number.
  std::optional<std::uint64_t> seal(util::TimeSec watermark);

  std::size_t pending() const noexcept { return pending_.size(); }
  std::uint64_t bytes_appended() const noexcept { return bytes_appended_; }
  const std::filesystem::path& dir() const noexcept { return dir_; }

 private:
  /// Truncates the WAL, then writes `image` (header + frames) at offset 0.
  void reset_wal(std::span<const std::uint8_t> image);
  /// Writes `bytes` at the WAL's end, counting the write calls.
  void write_wal(std::span<const std::uint8_t> bytes);

  std::filesystem::path dir_;
  WritableFile wal_;
  std::uint64_t wal_size_ = 0;
  std::uint64_t next_seq_ = 1;
  std::vector<core::EventInstance> pending_;
  std::vector<std::uint8_t> scratch_;
  std::uint64_t bytes_appended_ = 0;
  obs::Counter* bytes_written_ = nullptr;
  obs::Counter* wal_writes_ = nullptr;
  obs::Counter* recovered_bytes_ = nullptr;
  obs::Counter* seals_ = nullptr;
};

/// Persists a finalized in-memory store as one sealed segment under `dir`
/// (creating the directory; any existing log there is replaced). This is
/// the batch path behind `grca simulate --store-out`: buckets are already
/// grouped and sorted, so the segment is a single ordered pass.
void write_sealed_store(const std::filesystem::path& dir,
                        const core::EventStore& store,
                        util::TimeSec watermark);

/// Everything recoverable from the log's *sealed* segments, in (segment
/// sequence, file) order — the streaming engine's resume source. The WAL is
/// deliberately ignored here.
struct SealedLoad {
  std::vector<core::EventInstance> events;
  std::optional<util::TimeSec> watermark;  // newest sealed watermark
  std::size_t segments = 0;
};
SealedLoad load_sealed_events(const std::filesystem::path& dir);

/// Full-sweep integrity check. Normal mode checks every checksum and every
/// byte's decodability: header CRCs, footer CRCs, every WAL frame CRC,
/// column region CRCs, a full structural decode, and footer/data agreement
/// on counts and tiling. A segment file that is not sealed (a v1 sealed
/// segment included) is an error; only the WAL may legitimately carry a
/// torn tail, even one inside its header (reported, not an error). Deep
/// mode additionally recomputes the footer statistics — per-run
/// max_duration and every zone map (min/max start, location range, name
/// bitmap) — against the decoded rows, catching stats-only damage that
/// checksums can't (a bug in a writer, not a bit flip).
struct VerifyReport {
  std::size_t segments = 0;
  std::uint64_t frames = 0;  // decoded rows (WAL frames or sealed rows)
  std::uint64_t bytes = 0;
  std::uint64_t torn_wal_bytes = 0;
  bool deep = false;
  std::vector<std::string> errors;

  bool ok() const noexcept { return errors.empty(); }
};
VerifyReport verify_store(const std::filesystem::path& dir,
                          bool deep = false);

/// Rewrites the log as a single sealed segment containing every event from
/// every sealed segment plus the WAL's valid prefix (a WAL torn inside its
/// header counts as empty), then removes the inputs. Query results are
/// unchanged (same events, same order — ties keep segment order); the
/// newest input watermark is carried over. Before any input is removed,
/// the freshly written segment is re-opened and deep-checked (footer
/// statistics recomputed from a full rescan); a mismatch deletes the
/// output and throws, leaving the inputs untouched. Returns the new
/// segment's sequence number, or nullopt when the log is empty.
std::optional<std::uint64_t> compact_store(const std::filesystem::path& dir);

}  // namespace grca::storage
