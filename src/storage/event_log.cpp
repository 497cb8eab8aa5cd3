// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "storage/event_log.h"

#include <algorithm>
#include <cstdio>

#include "obs/span.h"
#include "storage/codec.h"
#include "util/error.h"

namespace grca::storage {

namespace fs = std::filesystem;

namespace {

fs::path segment_path(const fs::path& dir, std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof name, "seg-%06llu%s",
                static_cast<unsigned long long>(seq), kSegmentExtension);
  return dir / name;
}

/// Parses "seg-<seq>.grseg"; nullopt for anything else (tmp files, wal).
std::optional<std::uint64_t> parse_seq(const fs::path& path) {
  std::string name = path.filename().string();
  const std::string prefix = "seg-";
  const std::string ext = kSegmentExtension;
  if (name.size() <= prefix.size() + ext.size()) return std::nullopt;
  if (name.rfind(prefix, 0) != 0) return std::nullopt;
  if (name.compare(name.size() - ext.size(), ext.size(), ext) != 0) {
    return std::nullopt;
  }
  std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - ext.size());
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::stoull(digits);
}

/// The sequence number after the newest of `segments` (list_segments
/// order), or 1 for an empty log.
std::uint64_t next_sequence(const std::vector<fs::path>& segments) {
  return segments.empty() ? 1 : *parse_seq(segments.back()) + 1;
}

/// Writes `bytes` as `path` via a temp file + rename, so readers never see
/// a half-written segment.
void write_atomically(const fs::path& path,
                      std::span<const std::uint8_t> bytes) {
  fs::path tmp = path;
  tmp += ".tmp";
  write_file(tmp, bytes);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw StorageError("storage: rename " + tmp.string() + " -> " +
                       path.string() + ": " + ec.message());
  }
}

/// Groups pointers to `events` by name (names sorted) with each group in
/// (start, input-order) order — the exact bucket order the in-memory
/// store's stable sort produces, which is what keeps diagnosis verdicts
/// byte-identical across backends.
std::vector<std::pair<std::string, std::vector<const core::EventInstance*>>>
group_for_seal(const std::vector<core::EventInstance>& events) {
  std::vector<const core::EventInstance*> ptrs;
  ptrs.reserve(events.size());
  for (const core::EventInstance& e : events) ptrs.push_back(&e);
  std::stable_sort(ptrs.begin(), ptrs.end(),
                   [](const core::EventInstance* x,
                      const core::EventInstance* y) {
                     if (x->name != y->name) return x->name < y->name;
                     return x->when.start < y->when.start;
                   });
  std::vector<std::pair<std::string, std::vector<const core::EventInstance*>>>
      groups;
  for (const core::EventInstance* e : ptrs) {
    if (groups.empty() || groups.back().first != e->name) {
      groups.emplace_back(e->name,
                          std::vector<const core::EventInstance*>{});
    }
    groups.back().second.push_back(e);
  }
  return groups;
}

}  // namespace

std::vector<fs::path> list_segments(const fs::path& dir) {
  std::vector<std::pair<std::uint64_t, fs::path>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (std::optional<std::uint64_t> seq = parse_seq(entry.path())) {
      found.emplace_back(*seq, entry.path());
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<fs::path> out;
  out.reserve(found.size());
  for (auto& [seq, path] : found) out.push_back(std::move(path));
  return out;
}

SealedRead read_sealed(const fs::path& dir,
                       const std::function<void(core::EventInstance)>& sink) {
  SealedRead read;
  read.files = list_segments(dir);
  for (const fs::path& path : read.files) {
    SegmentReader seg = SegmentReader::open(path);
    if (!seg.sealed()) {
      throw StorageError("storage: segment " + path.string() +
                         " is not sealed");
    }
    seg.for_each_event(sink);
    read.bytes += seg.size();
    util::TimeSec watermark = seg.v2_footer().watermark;
    if (!read.watermark || watermark > *read.watermark) {
      read.watermark = watermark;
    }
  }
  return read;
}

WalRead read_wal(const fs::path& path) {
  WalRead wal;
  if (!fs::exists(path)) return wal;
  wal.size = fs::file_size(path);
  wal.torn_bytes = wal.size;
  if (wal.size < kSegmentHeaderBytes) {
    wal.header = WalRead::Header::kTorn;
    return wal;
  }
  SegmentReader seg;
  try {
    seg = SegmentReader::open(path);
  } catch (const StorageError& e) {
    wal.header = WalRead::Header::kDamaged;
    wal.damage = e.what();
    return wal;
  }
  if (seg.sealed()) {
    wal.header = WalRead::Header::kDamaged;
    wal.damage = "storage: " + path.string() +
                 " is a sealed segment, not a live WAL";
    return wal;
  }
  wal.header = WalRead::Header::kValid;
  wal.seq = seg.seq();
  // Frames in order from the header end. The first that fails its checksum
  // or does not decode (a checksum-valid row ending before it starts, say)
  // starts the torn tail.
  std::span<const std::uint8_t> bytes = seg.bytes();
  std::uint64_t at = kSegmentHeaderBytes;
  while (std::optional<FrameView> frame = probe_frame(bytes.subspan(at))) {
    try {
      wal.events.push_back(decode_event(frame->payload));
    } catch (const StorageError&) {
      break;
    }
    at += frame->frame_bytes;
  }
  wal.frame_bytes = at - kSegmentHeaderBytes;
  wal.torn_bytes = bytes.size() - at;
  return wal;
}

EventLogWriter::EventLogWriter(const fs::path& dir) : dir_(dir) {
  fs::create_directories(dir_);
  next_seq_ = next_sequence(list_segments(dir_));
  fs::path wal_path = dir_ / kWalName;
  WalRead dropped = read_wal(wal_path);
  if (obs::MetricsRegistry* reg = obs::registry_ptr()) {
    bytes_written_ = &reg->counter("grca_storage_bytes_written_total");
    wal_writes_ = &reg->counter("grca_storage_wal_writes_total");
    seals_ = &reg->counter("grca_storage_seals_total");
    // Listed (at zero) like every other storage counter; only a reader
    // that adopts WAL frames adds to it.
    reg->counter("grca_storage_recovered_bytes");
    if (std::uint64_t bytes = dropped.frame_bytes + dropped.torn_bytes) {
      reg->counter("grca_storage_truncated_bytes").inc(bytes);
    }
  }
  wal_ = WritableFile::open(wal_path);
  reset_wal();
}

void EventLogWriter::reset_wal() {
  wal_.truncate(0);
  wal_size_ = 0;
  write_wal(encode_segment_header(next_seq_, SegmentKind::kLive));
}

void EventLogWriter::write_wal(std::span<const std::uint8_t> bytes) {
  std::size_t calls = wal_.write_at(wal_size_, bytes);
  wal_size_ += bytes.size();
  if (wal_writes_) wal_writes_->inc(calls);
}

void EventLogWriter::append(std::span<const core::EventInstance> events) {
  if (events.empty()) return;
  scratch_.clear();
  for (const core::EventInstance& e : events) encode_frame(e, scratch_);
  write_wal(scratch_);
  bytes_appended_ += scratch_.size();
  if (bytes_written_) bytes_written_->inc(scratch_.size());
  pending_.insert(pending_.end(), events.begin(), events.end());
}

std::optional<std::uint64_t> EventLogWriter::seal(util::TimeSec watermark) {
  obs::ScopedSpan span("store-seal");
  auto groups = group_for_seal(pending_);
  std::vector<std::uint8_t> image =
      encode_sealed_segment_v2(next_seq_, watermark, groups);
  write_atomically(segment_path(dir_, next_seq_), image);
  if (bytes_written_) bytes_written_->inc(image.size());
  if (seals_) seals_->inc();
  std::uint64_t seq = next_seq_++;
  pending_.clear();
  // Reset the WAL for the next batch (new header carries the new seq).
  reset_wal();
  return seq;
}

void write_sealed_store(const fs::path& dir, const core::EventStore& store,
                        util::TimeSec watermark) {
  obs::ScopedSpan span("store-seal");
  fs::create_directories(dir);
  // Replace semantics: a store-out directory holds exactly this corpus.
  for (const fs::path& old : list_segments(dir)) fs::remove(old);
  fs::remove(dir / kWalName);
  store.warm();  // buckets sorted before we stream them out
  std::vector<std::pair<std::string, std::vector<const core::EventInstance*>>>
      groups;
  for (const std::string& name : store.event_names()) {
    std::span<const core::EventInstance> bucket = store.all(name);
    std::vector<const core::EventInstance*> ptrs;
    ptrs.reserve(bucket.size());
    for (const core::EventInstance& e : bucket) ptrs.push_back(&e);
    groups.emplace_back(name, std::move(ptrs));
  }
  std::vector<std::uint8_t> image =
      encode_sealed_segment_v2(1, watermark, groups);
  write_atomically(segment_path(dir, 1), image);
  if (obs::MetricsRegistry* reg = obs::registry_ptr()) {
    reg->counter("grca_storage_bytes_written_total").inc(image.size());
    reg->counter("grca_storage_seals_total").inc();
  }
}

namespace {

/// Sealed-segment check. Normal mode: per-run region CRCs plus a full
/// structural decode (every varint bounds-checked, every dictionary id
/// resolved). Deep mode additionally recomputes the footer statistics —
/// max durations and every zone map — from the decoded rows.
void check_sealed(const SegmentReader& seg, VerifyReport& report,
                  bool deep) {
  const fs::path& path = seg.path();
  const V2Footer& footer = seg.v2_footer();
  std::span<const std::uint8_t> bytes = seg.bytes();
  for (const V2Run& run : footer.runs) {
    std::string where =
        path.string() + " run '" + footer.names[run.name_id] + "'";
    if (!seg.region_intact(run)) {
      report.errors.push_back(where + ": column region checksum mismatch");
      continue;
    }
    std::vector<core::EventInstance> rows;
    std::vector<core::LocId> row_locs;  // dictionary ids, row order
    if (deep) {
      rows.reserve(run.count);
      row_locs.reserve(run.count);
    }
    try {
      decode_v2_rows(bytes, footer, run,
                     [&](core::EventInstance e, core::LocId loc) {
                       if (deep) {
                         rows.push_back(std::move(e));
                         row_locs.push_back(loc);
                       }
                     });
    } catch (const StorageError& e) {
      report.errors.push_back(where + ": " + e.what());
      continue;
    }
    report.frames += run.count;
    if (!deep) continue;
    util::TimeSec max_duration = 0;
    for (std::size_t b = 0; b < run.blocks.size(); ++b) {
      const V2Block& zone = run.blocks[b];
      std::size_t lo = b * run.block_rows;
      std::size_t hi = std::min<std::size_t>(lo + run.block_rows,
                                             rows.size());
      util::TimeSec min_start = rows[lo].when.start;
      util::TimeSec max_start = rows[lo].when.start;
      core::LocId loc_min = std::numeric_limits<core::LocId>::max();
      core::LocId loc_max = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        min_start = std::min(min_start, rows[i].when.start);
        max_start = std::max(max_start, rows[i].when.start);
        max_duration = std::max(max_duration, rows[i].when.duration());
        loc_min = std::min(loc_min, row_locs[i]);
        loc_max = std::max(loc_max, row_locs[i]);
      }
      if (zone.min_start != min_start || zone.max_start != max_start) {
        report.errors.push_back(where + ": zone map " + std::to_string(b) +
                                " start range mismatch");
      }
      if (zone.loc_min != loc_min || zone.loc_max != loc_max) {
        report.errors.push_back(where + ": zone map " + std::to_string(b) +
                                " location range mismatch");
      }
      if (zone.name_bitmap != (1ull << (run.name_id % 64))) {
        report.errors.push_back(where + ": zone map " + std::to_string(b) +
                                " name bitmap mismatch");
      }
    }
    if (max_duration != run.max_duration) {
      report.errors.push_back(where + ": footer max_duration " +
                              std::to_string(run.max_duration) +
                              " != observed " +
                              std::to_string(max_duration));
    }
  }
}

}  // namespace

VerifyReport verify_store(const fs::path& dir, bool deep) {
  VerifyReport report;
  report.deep = deep;
  if (!fs::is_directory(dir)) {
    report.errors.push_back(dir.string() + " is not a directory");
    return report;
  }
  for (const fs::path& path : list_segments(dir)) {
    ++report.segments;
    SegmentReader seg;
    try {
      seg = SegmentReader::open(path);
    } catch (const StorageError& e) {
      report.errors.push_back(e.what());
      continue;
    }
    report.bytes += seg.size();
    if (seg.sealed()) {
      check_sealed(seg, report, deep);
    } else {
      // Only the WAL may be live.
      report.errors.push_back(path.string() + ": not a sealed segment");
    }
  }
  WalRead wal = read_wal(dir / kWalName);
  if (!wal.present()) return report;
  ++report.segments;
  if (wal.header == WalRead::Header::kDamaged) {
    report.errors.push_back(wal.damage);
    return report;
  }
  report.bytes += wal.size;
  report.frames += wal.events.size();
  report.torn_wal_bytes += wal.torn_bytes;
  return report;
}

std::optional<std::uint64_t> compact_store(const fs::path& dir) {
  // Collect every event: sealed segments in sequence order, then the WAL's
  // valid prefix. The stable per-(name,start) sort in group_for_seal keeps
  // ties in this collection order, so merged buckets read back in exactly
  // the order the separate segments produced.
  std::vector<core::EventInstance> events;
  SealedRead sealed;
  try {
    sealed = read_sealed(dir, [&events](core::EventInstance e) {
      events.push_back(std::move(e));
    });
  } catch (const StorageError& e) {
    throw StorageError(std::string("storage: refusing to compact: ") +
                       e.what());
  }
  // A WAL torn inside its header holds no frames: compact it as empty. A
  // damaged full-length header may hide frames: refuse.
  fs::path wal_path = dir / kWalName;
  WalRead wal = read_wal(wal_path);
  if (wal.header == WalRead::Header::kDamaged) {
    throw StorageError("storage: refusing to compact: " + wal.damage);
  }
  events.insert(events.end(), std::make_move_iterator(wal.events.begin()),
                std::make_move_iterator(wal.events.end()));
  std::uint64_t next_seq = next_sequence(sealed.files);
  util::TimeSec watermark = sealed.watermark.value_or(0);
  if (events.empty()) return std::nullopt;
  obs::ScopedSpan span("store-compact");
  auto groups = group_for_seal(events);
  std::vector<std::uint8_t> image =
      encode_sealed_segment_v2(next_seq, watermark, groups);
  fs::path out_path = segment_path(dir, next_seq);
  write_atomically(out_path, image);
  // Post-compact invariant check *before* any input is removed: re-open
  // the output and deep-verify it — footer statistics must equal a full
  // rescan and the row count must match what went in. On failure the
  // output is deleted and the inputs survive untouched.
  {
    VerifyReport check;
    check.deep = true;
    SegmentReader out;
    try {
      out = SegmentReader::open(out_path);
      check_sealed(out, check, /*deep=*/true);
      if (out.v2_footer().event_count != events.size()) {
        check.errors.push_back(out_path.string() + ": compacted " +
                               std::to_string(events.size()) +
                               " events but footer claims " +
                               std::to_string(out.v2_footer().event_count));
      }
    } catch (const StorageError& e) {
      check.errors.push_back(e.what());
    }
    if (!check.ok()) {
      fs::remove(out_path);
      throw StorageError("storage: compaction output failed validation: " +
                         check.errors.front());
    }
  }
  for (const fs::path& path : sealed.files) fs::remove(path);
  fs::remove(wal_path);
  return next_seq;
}

}  // namespace grca::storage
