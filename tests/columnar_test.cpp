// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the v2 columnar sealed-block format: varint/zigzag codec
// boundaries, whole-segment round trips, column damage failing the open,
// an exhaustive single-bit corruption sweep (every flipped bit must fail
// verification cleanly — no crash, no silent acceptance), footer-statistic
// drift that only --deep verification can catch, and the rejection of v1
// sealed segments.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/event_store.h"
#include "storage/codec.h"
#include "storage/columnar.h"
#include "storage/crc32c.h"
#include "storage/event_log.h"
#include "storage/persistent_store.h"
#include "storage/segment.h"
#include "util/error.h"
#include "util/rng.h"

namespace grca::storage {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& tag) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           ("grca-columnar-test-" + std::string(info->test_suite_name()) +
            "-" + std::string(info->name()) + "-" + tag);
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::vector<std::uint8_t> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const fs::path& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

core::EventInstance synth_event(util::Rng& rng, int names, int routers) {
  core::EventInstance e;
  e.name = "ev-" + std::to_string(rng.below(names));
  e.when.start = util::make_utc(2026, 6, 1) + rng.range(0, 24 * 3600);
  e.when.end = e.when.start + rng.range(0, 1800);
  e.where = core::Location::interface(
      "r" + std::to_string(rng.below(routers)),
      "ge-0/0/" + std::to_string(rng.below(4)));
  if (rng.chance(0.5)) {
    e.attrs["reason"] = "code-" + std::to_string(rng.below(8));
  }
  return e;
}

core::EventStore build_store(util::Rng& rng, int count, int names,
                             int routers, util::TimeSec& watermark) {
  core::EventStore mem;
  watermark = 0;
  for (int i = 0; i < count; ++i) {
    core::EventInstance e = synth_event(rng, names, routers);
    watermark = std::max(watermark, e.when.start + 1);
    mem.add(std::move(e));
  }
  mem.warm();
  return mem;
}

// ---------------------------------------------------------------- varint --

TEST(VarintCodec, UnsignedBoundariesRoundTrip) {
  std::vector<std::uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                       (1ull << 32) - 1, 1ull << 32,
                                       (1ull << 56) + 9,
                                       std::numeric_limits<std::uint64_t>::max()};
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t v : values) put_varint(bytes, v);
  ByteReader in(bytes);
  for (std::uint64_t v : values) EXPECT_EQ(in.varint(), v);
  EXPECT_EQ(in.remaining(), 0u);
  // Single-byte values really are single bytes (the format's whole point).
  bytes.clear();
  put_varint(bytes, 127);
  EXPECT_EQ(bytes.size(), 1u);
}

TEST(VarintCodec, SignedZigzagBoundariesRoundTrip) {
  std::vector<std::int64_t> values = {0, 1, -1, 63, -64, 64, -65,
                                      std::numeric_limits<std::int64_t>::max(),
                                      std::numeric_limits<std::int64_t>::min()};
  std::vector<std::uint8_t> bytes;
  for (std::int64_t v : values) put_varint_signed(bytes, v);
  ByteReader in(bytes);
  for (std::int64_t v : values) EXPECT_EQ(in.varint_signed(), v);
  EXPECT_EQ(in.remaining(), 0u);
  // Zigzag keeps small magnitudes small regardless of sign.
  bytes.clear();
  put_varint_signed(bytes, -1);
  EXPECT_EQ(bytes.size(), 1u);
}

TEST(VarintCodec, TruncatedAndOverlongVarintsThrow) {
  std::vector<std::uint8_t> dangling = {0x80, 0x80};  // promises more bytes
  ByteReader in(dangling);
  EXPECT_THROW(in.varint(), StorageError);
  // 11 continuation bytes can't encode a u64.
  std::vector<std::uint8_t> overlong(11, 0x80);
  ByteReader in2(overlong);
  EXPECT_THROW(in2.varint(), StorageError);
}

// ------------------------------------------------------------ round trip --

TEST(ColumnarSegment, RoundTripsEveryRowInStoredOrder) {
  util::Rng rng(0xC01);
  util::TimeSec watermark = 0;
  core::EventStore mem = build_store(rng, 500, 6, 12, watermark);
  TempDir dir("rt");
  write_sealed_store(dir.path, mem, watermark);

  auto segments = list_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  SegmentReader seg = SegmentReader::open(segments.front());
  ASSERT_TRUE(seg.sealed());
  EXPECT_EQ(seg.v2_footer().event_count, mem.total_instances());
  EXPECT_EQ(seg.v2_footer().watermark, watermark);

  // Stored order is name-major (sorted names), rows sorted by start — the
  // in-memory store's bucket order exactly.
  std::vector<core::EventInstance> want;
  for (const std::string& name : mem.event_names()) {
    auto span = mem.all(name);
    want.insert(want.end(), span.begin(), span.end());
  }
  std::vector<core::EventInstance> got;
  seg.for_each_event(
      [&got](core::EventInstance e) { got.push_back(std::move(e)); });
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    // where_id is bookkeeping, never serialized.
    EXPECT_EQ(got[i].where_id, core::kInvalidLocId);
    got[i].where_id = want[i].where_id;
    ASSERT_EQ(got[i], want[i]) << "row " << i;
  }

  // Footer structure: one zone map per kV2BlockRows rows, per run.
  const V2Footer& footer = seg.v2_footer();
  EXPECT_EQ(footer.names.size(), mem.event_names().size());
  for (const V2Run& run : footer.runs) {
    EXPECT_EQ(run.blocks.size(),
              (run.count + run.block_rows - 1) / run.block_rows);
  }
}

// ----------------------------------------------------- column damage --

// open() reads every byte of a sealed segment, so it checks each run's
// column region CRC before decoding: a flipped bit in the columns must
// fail the open with a StorageError naming the file, never load silently.
TEST(ColumnarSegment, ColumnDamageFailsOpenNamingTheFile) {
  util::Rng rng(0xC02);
  util::TimeSec watermark = 0;
  core::EventStore mem = build_store(rng, 3000, 5, 20, watermark);
  TempDir dir("cols");
  write_sealed_store(dir.path, mem, watermark);
  auto segments = list_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  const fs::path seg_path = segments.front();

  // Flip one bit in the middle of the last run's attrs column.
  const V2Run run = SegmentReader::open(seg_path).v2_footer().runs.back();
  ASSERT_GT(run.attrs_len, 0u);
  std::vector<std::uint8_t> bytes = read_file(seg_path);
  bytes[run.region_off + run.region_len() - run.attrs_len / 2 - 1] ^= 0x01;
  write_file(seg_path, bytes);

  try {
    (void)PersistentEventStore::open(dir.path);
    ADD_FAILURE() << "a sealed segment with damaged columns was opened";
  } catch (const StorageError& e) {
    EXPECT_NE(std::string(e.what()).find(seg_path.string()),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(verify_store(dir.path).ok());
}

// A row whose interval ends before it starts can sit under valid checksums
// (a faulty writer, a hand-edited file). It is storage damage, not a
// configuration error: open and compact refuse the sealed segment with a
// StorageError naming the file and run, verify reports it, and in the WAL
// it marks the torn-tail boundary as any undecodable frame does.
TEST(ColumnarSegment, RowEndingBeforeItStartsIsStorageDamage) {
  util::Rng rng(0xC08);
  std::vector<core::EventInstance> events;
  for (int i = 0; i < 3; ++i) events.push_back(synth_event(rng, 1, 4));
  std::sort(events.begin(), events.end(),
            [](const core::EventInstance& a, const core::EventInstance& b) {
              return a.when.start < b.when.start;
            });
  core::EventInstance inverted = events.back();
  inverted.when.start = events.back().when.start + 60;
  inverted.when.end = inverted.when.start - 5;

  // Sealed: a checksum-valid v2 segment holding the inverted row.
  {
    TempDir dir("sealed");
    fs::create_directories(dir.path);
    std::vector<const core::EventInstance*> rows;
    for (const core::EventInstance& e : events) rows.push_back(&e);
    rows.push_back(&inverted);
    const fs::path seg_path =
        dir.path / ("seg-000001" + std::string(kSegmentExtension));
    write_file(seg_path,
               encode_sealed_segment_v2(1, inverted.when.start + 1,
                                        {{inverted.name, rows}}));
    ASSERT_EQ(list_segments(dir.path), std::vector<fs::path>{seg_path});

    auto expect_names_file_and_run = [&](auto&& call) {
      try {
        call();
        ADD_FAILURE() << "a row ending before it starts was accepted";
      } catch (const StorageError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(seg_path.string()), std::string::npos) << what;
        EXPECT_NE(what.find("run '" + inverted.name + "'"), std::string::npos)
            << what;
      }
    };
    expect_names_file_and_run(
        [&] { (void)PersistentEventStore::open(dir.path); });
    expect_names_file_and_run([&] { (void)compact_store(dir.path); });
    EXPECT_EQ(list_segments(dir.path), std::vector<fs::path>{seg_path});
    VerifyReport report = verify_store(dir.path);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_NE(report.errors.front().find(seg_path.string()), std::string::npos)
        << report.errors.front();
  }

  // WAL: two good frames, the inverted one, then one more good frame. The
  // inverted frame is where the valid prefix ends.
  {
    TempDir dir("wal");
    fs::create_directories(dir.path);
    std::vector<std::uint8_t> wal =
        encode_segment_header(1, SegmentKind::kLive);
    encode_frame(events[0], wal);
    encode_frame(events[1], wal);
    const std::size_t valid_end = wal.size();
    encode_frame(inverted, wal);
    encode_frame(events[2], wal);
    write_file(dir.path / kWalName, wal);

    PersistentEventStore store = PersistentEventStore::open(dir.path);
    EXPECT_EQ(store.total_instances(), 2u);
    EXPECT_EQ(store.stats().wal_events, 2u);
    EXPECT_EQ(store.stats().truncated_bytes, wal.size() - valid_end);
    VerifyReport report = verify_store(dir.path);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.frames, 2u);
    EXPECT_EQ(report.torn_wal_bytes, wal.size() - valid_end);
  }
}

// ------------------------------------------------------- corruption sweep --

// Every single-bit flip anywhere in a v2 segment must be caught by
// verify_store (the format's CRCs tile the whole file: header CRC, per-run
// region CRCs, footer trailer CRC), and must never crash the reader — open
// and query either succeed or throw StorageError.
TEST(ColumnarSegment, EveryBitFlipFailsVerificationCleanly) {
  util::Rng rng(0xC04);
  util::TimeSec watermark = 0;
  core::EventStore mem = build_store(rng, 12, 3, 4, watermark);
  TempDir dir("flip");
  write_sealed_store(dir.path, mem, watermark);
  auto segments = list_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  const fs::path seg_path = segments.front();
  const std::vector<std::uint8_t> pristine = read_file(seg_path);
  ASSERT_TRUE(verify_store(dir.path).ok());

  std::vector<std::uint8_t> mutant = pristine;
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      mutant[byte] = pristine[byte] ^ static_cast<std::uint8_t>(1u << bit);
      write_file(seg_path, mutant);
      VerifyReport report = verify_store(dir.path);
      EXPECT_FALSE(report.ok())
          << "bit " << bit << " of byte " << byte << " went undetected";
      // The read path must degrade to an exception, never a fault.
      try {
        PersistentEventStore store = PersistentEventStore::open(dir.path);
        for (const std::string& name : store.event_names()) {
          (void)store.all(name);
        }
      } catch (const StorageError&) {
        // Expected for most flips; reaching here cleanly is the point.
      }
      mutant[byte] = pristine[byte];
    }
  }
  write_file(seg_path, pristine);
  EXPECT_TRUE(verify_store(dir.path).ok());
}

// ------------------------------------------------------------ deep verify --

/// Re-writes the segment's footer after applying `mutate`, recomputing the
/// trailer so every checksum is self-consistent — simulating a buggy
/// writer, the damage class only --deep verification can catch.
template <typename Mutate>
void rewrite_footer(const fs::path& seg_path, Mutate&& mutate) {
  std::vector<std::uint8_t> bytes = read_file(seg_path);
  ASSERT_GE(bytes.size(), kSegmentHeaderBytes + kFooterTrailerBytes);
  std::span<const std::uint8_t> trailer =
      std::span<const std::uint8_t>(bytes).last(kFooterTrailerBytes);
  ByteReader tr(trailer);
  std::uint64_t footer_len = tr.u64();
  std::size_t footer_at = bytes.size() - kFooterTrailerBytes - footer_len;
  V2Footer footer = decode_v2_footer(
      std::span<const std::uint8_t>(bytes).subspan(footer_at, footer_len));
  mutate(footer);
  std::vector<std::uint8_t> payload = encode_v2_footer(footer);
  bytes.resize(footer_at);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  put_u64(bytes, payload.size());
  put_u32(bytes, crc32c(payload.data(), payload.size()));
  put_u32(bytes, kFooterMagic);
  write_file(seg_path, bytes);
}

TEST(ColumnarSegment, DeepVerifyCatchesMaxDurationDrift) {
  util::Rng rng(0xC05);
  util::TimeSec watermark = 0;
  core::EventStore mem = build_store(rng, 100, 2, 6, watermark);
  TempDir dir("deep");
  write_sealed_store(dir.path, mem, watermark);
  auto segments = list_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);

  rewrite_footer(segments.front(), [](V2Footer& footer) {
    ASSERT_FALSE(footer.runs.empty());
    footer.runs[0].max_duration += 10;
  });
  // Checksums are all consistent, so the normal sweep passes...
  EXPECT_TRUE(verify_store(dir.path).ok());
  // ...but the deep rescan recomputes the statistic and disagrees.
  VerifyReport deep = verify_store(dir.path, /*deep=*/true);
  EXPECT_FALSE(deep.ok());
  ASSERT_FALSE(deep.errors.empty());
  EXPECT_NE(deep.errors.front().find("max_duration"), std::string::npos);
}

TEST(ColumnarSegment, DeepVerifyCatchesZoneMapDrift) {
  util::Rng rng(0xC06);
  util::TimeSec watermark = 0;
  core::EventStore mem = build_store(rng, 100, 2, 6, watermark);
  TempDir dir("zone");
  write_sealed_store(dir.path, mem, watermark);
  auto segments = list_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);

  // Widening block 0's minimum start keeps the footer structurally valid
  // (monotonicity holds) but no longer matches the rows.
  rewrite_footer(segments.front(), [](V2Footer& footer) {
    ASSERT_FALSE(footer.runs.empty());
    ASSERT_FALSE(footer.runs[0].blocks.empty());
    footer.runs[0].blocks[0].min_start -= 5;
  });
  EXPECT_TRUE(verify_store(dir.path).ok());
  VerifyReport deep = verify_store(dir.path, /*deep=*/true);
  EXPECT_FALSE(deep.ok());
  ASSERT_FALSE(deep.errors.empty());
  EXPECT_NE(deep.errors.front().find("zone map"), std::string::npos);
}

// ------------------------------------------------------- format versions --

// Sealed segments are v2 only: a sealed segment whose header says v1 (the
// retired row format) must be refused by every reader, naming the file,
// and never fall back to another decoder.
TEST(ColumnarSegment, V1SealedHeaderIsRejectedNamingTheFile) {
  util::Rng rng(0xC07);
  util::TimeSec watermark = 0;
  core::EventStore mem = build_store(rng, 200, 4, 10, watermark);
  TempDir dir("v1");
  write_sealed_store(dir.path, mem, watermark);
  auto segments = list_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  const fs::path seg_path = segments.front();

  // Rewrite the header version to 1 (kind stays sealed) and recompute the
  // header CRC, so only the version/kind pairing is wrong.
  std::vector<std::uint8_t> bytes = read_file(seg_path);
  ByteReader header(std::span<const std::uint8_t>(bytes).first(8));
  ASSERT_EQ(header.u32(), kSegmentMagic);
  std::uint32_t ver_kind = header.u32();
  ASSERT_EQ(ver_kind & 0xFFFFu, kFormatV2);
  std::vector<std::uint8_t> patched;
  put_u32(patched, (ver_kind & 0xFFFF0000u) | kFormatV1);
  std::copy(patched.begin(), patched.end(), bytes.begin() + 4);
  patched.clear();
  put_u32(patched, crc32c(bytes.data(), kSegmentHeaderBytes - 4));
  std::copy(patched.begin(), patched.end(),
            bytes.begin() + kSegmentHeaderBytes - 4);
  write_file(seg_path, bytes);

  auto expect_names_file = [&](auto&& open) {
    try {
      open();
      ADD_FAILURE() << "a v1 sealed segment was accepted";
    } catch (const StorageError& e) {
      EXPECT_NE(std::string(e.what()).find(seg_path.string()),
                std::string::npos)
          << e.what();
    }
  };
  expect_names_file([&] { (void)SegmentReader::open(seg_path); });
  expect_names_file([&] { (void)PersistentEventStore::open(dir.path); });

  VerifyReport report = verify_store(dir.path, /*deep=*/true);
  EXPECT_EQ(report.segments, 1u);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors.front().find(seg_path.string()), std::string::npos)
      << report.errors.front();
}

}  // namespace
}  // namespace grca::storage
