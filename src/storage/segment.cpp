// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "storage/segment.h"

#include "storage/codec.h"
#include "storage/crc32c.h"
#include "storage/io.h"
#include "util/error.h"

namespace grca::storage {

std::vector<std::uint8_t> encode_segment_header(std::uint64_t seq,
                                                SegmentKind kind) {
  std::uint16_t version =
      kind == SegmentKind::kSealed ? kFormatV2 : kFormatV1;
  std::vector<std::uint8_t> out;
  out.reserve(kSegmentHeaderBytes);
  put_u32(out, kSegmentMagic);
  put_u32(out, static_cast<std::uint32_t>(version) |
                   static_cast<std::uint32_t>(kind) << 16);
  put_u64(out, seq);
  put_u32(out, 0);  // reserved
  put_u32(out, crc32c(out.data(), out.size()));
  return out;
}

SegmentReader SegmentReader::open(const std::filesystem::path& path) {
  SegmentReader seg;
  seg.path_ = path;
  seg.bytes_ = read_file(path);
  std::span<const std::uint8_t> bytes = seg.bytes_;
  if (bytes.size() < kSegmentHeaderBytes) {
    throw StorageError("storage: " + path.string() +
                       " is too short for a segment header");
  }
  if (crc32c(bytes.data(), kSegmentHeaderBytes - 4) !=
      ByteReader(bytes.subspan(kSegmentHeaderBytes - 4, 4)).u32()) {
    throw StorageError("storage: " + path.string() +
                       " segment header checksum mismatch");
  }
  ByteReader in(bytes.first(kSegmentHeaderBytes));
  if (in.u32() != kSegmentMagic) {
    throw StorageError("storage: " + path.string() +
                       " is not a grca segment (bad magic)");
  }
  std::uint32_t ver_kind = in.u32();
  std::uint16_t version = static_cast<std::uint16_t>(ver_kind);
  const bool sealed =
      static_cast<SegmentKind>(ver_kind >> 16) == SegmentKind::kSealed;
  if (version != (sealed ? kFormatV2 : kFormatV1)) {
    throw StorageError("storage: " + path.string() + " is a v" +
                       std::to_string(version) +
                       (sealed ? " sealed" : " live") +
                       " segment; this build reads v1 live and v2 sealed "
                       "segments");
  }
  seg.seq_ = in.u64();
  if (!sealed) return seg;

  // A sealed segment must end in a valid trailer whose footer checksums
  // clean: the column regions are not self-describing.
  seg.sealed_ = true;
  auto damaged = [&path] {
    return StorageError("storage: " + path.string() +
                        " v2 segment footer is damaged or missing");
  };
  if (bytes.size() < kSegmentHeaderBytes + kFooterTrailerBytes) {
    throw damaged();
  }
  ByteReader tr(bytes.last(kFooterTrailerBytes));
  std::uint64_t footer_len = tr.u64();
  std::uint32_t footer_crc = tr.u32();
  std::uint32_t magic = tr.u32();
  if (magic != kFooterMagic ||
      footer_len > bytes.size() - kSegmentHeaderBytes - kFooterTrailerBytes) {
    throw damaged();
  }
  std::size_t footer_at = bytes.size() - kFooterTrailerBytes - footer_len;
  std::span<const std::uint8_t> payload = bytes.subspan(footer_at, footer_len);
  if (crc32c(payload.data(), payload.size()) != footer_crc) throw damaged();
  seg.v2_footer_ = decode_v2_footer(payload);
  // The run regions must tile the file exactly between the header and the
  // footer — together with the per-region CRCs this leaves no
  // unchecksummed byte in the file.
  auto untiled = [&path] {
    return StorageError("storage: " + path.string() +
                        " v2 run regions do not tile the segment");
  };
  std::uint64_t at = kSegmentHeaderBytes;
  for (const V2Run& run : seg.v2_footer_.runs) {
    if (run.region_off != at) throw untiled();
    at += run.region_len();
  }
  if (at != footer_at) throw untiled();
  return seg;
}

const V2Footer& SegmentReader::v2_footer() const {
  if (!sealed_) {
    throw StorageError("storage: " + path_.string() +
                       " is live; it has no sealed footer");
  }
  return v2_footer_;
}

bool SegmentReader::region_intact(const V2Run& run) const {
  return crc32c(bytes_.data() + run.region_off, run.region_len()) ==
         run.region_crc;
}

void SegmentReader::for_each_event(
    const std::function<void(core::EventInstance)>& sink) const {
  std::span<const std::uint8_t> bytes = bytes_;
  for (const V2Run& run : v2_footer().runs) {
    if (!region_intact(run)) {
      throw StorageError("storage: " + path_.string() + " run '" +
                         v2_footer_.names[run.name_id] +
                         "': column region checksum mismatch");
    }
    try {
      decode_v2_rows(bytes, v2_footer_, run,
                     [&sink](core::EventInstance e, core::LocId) {
                       sink(std::move(e));
                     });
    } catch (const StorageError& e) {
      throw StorageError("storage: " + path_.string() + " run '" +
                         v2_footer_.names[run.name_id] + "': " + e.what());
    }
  }
}

}  // namespace grca::storage
