// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the persistent event store: CRC32C vectors, codec round-trip
// properties, bit-flip corruption rejection, torn-tail recovery sweeps,
// query equivalence between the persisted and in-memory stores,
// byte-identical diagnosis across backends, streaming kill-and-resume,
// verification, and compaction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/bgp_flap_app.h"
#include "apps/pipeline.h"
#include "apps/streaming.h"
#include "core/event_store.h"
#include "obs/metrics.h"
#include "simulation/workloads.h"
#include "storage/codec.h"
#include "storage/crc32c.h"
#include "storage/event_log.h"
#include "storage/persistent_store.h"
#include "storage/segment.h"
#include "topology/config.h"
#include "topology/topo_gen.h"
#include "util/error.h"
#include "util/rng.h"

namespace grca::storage {
namespace {

namespace fs = std::filesystem;
namespace t = topology;

/// A per-test scratch directory under the system temp dir, removed on both
/// entry (stale state from a crashed run) and exit.
struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& tag) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           ("grca-storage-test-" + std::string(info->test_suite_name()) + "-" +
            std::string(info->name()) + "-" + tag);
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

void write_file(const fs::path& p, const std::vector<std::uint8_t>& bytes,
                std::size_t n) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(n));
}

core::EventInstance random_event(util::Rng& rng) {
  static const char* kNames[] = {"bgp-flap", "link-down", "cpu-high",
                                 "ospf-adjacency", "fan-failure"};
  core::EventInstance e;
  e.name = kNames[rng.below(5)];
  e.when.start = util::make_utc(2026, 3, 1) + rng.range(-600, 72 * 3600);
  e.when.end = e.when.start + rng.range(0, 5400);
  switch (rng.below(4)) {
    case 0:
      e.where = core::Location::router("r" + std::to_string(rng.below(40)));
      break;
    case 1:
      e.where = core::Location::interface(
          "r" + std::to_string(rng.below(40)),
          "ge-0/0/" + std::to_string(rng.below(8)));
      break;
    case 2:
      e.where = core::Location::logical_link("lk" + std::to_string(rng.below(60)));
      break;
    default:
      e.where = core::Location::pop_pair("pop" + std::to_string(rng.below(6)),
                                         "pop" + std::to_string(rng.below(6)));
  }
  std::size_t attrs = rng.below(4);  // includes the empty-attrs case
  for (std::size_t i = 0; i < attrs; ++i) {
    e.attrs["k" + std::to_string(rng.below(6))] =
        "v" + std::to_string(rng.next() % 1000);
  }
  return e;
}

// ---------------------------------------------------------------- CRC32C --

TEST(Crc32c, KnownVectorAndChaining) {
  // The canonical CRC32C check value (RFC 3720 appendix / every
  // implementation's self-test vector).
  const char* digits = "123456789";
  EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(crc32c(digits, 0), 0u);
  // Chaining with the previous return value accumulates to the one-shot sum.
  std::uint32_t chained = crc32c(digits, 4);
  chained = crc32c(chained, digits + 4, 5);
  EXPECT_EQ(chained, crc32c(digits, 9));
}

// ----------------------------------------------------------------- Codec --

TEST(Codec, RandomRoundTripIsByteIdentical) {
  util::Rng rng(0x5EED5EEDull);
  for (int i = 0; i < 500; ++i) {
    core::EventInstance e = random_event(rng);
    std::vector<std::uint8_t> bytes;
    encode_event(e, bytes);
    core::EventInstance back = decode_event(bytes);
    ASSERT_EQ(back, e);
    // where_id is bookkeeping, never serialized: decode leaves it unset.
    EXPECT_EQ(back.where_id, core::kInvalidLocId);
    // Determinism: re-encoding the decoded instance is byte-identical.
    std::vector<std::uint8_t> again;
    encode_event(back, again);
    ASSERT_EQ(again, bytes);
  }
}

TEST(Codec, EdgeEventsRoundTrip) {
  // Empty attrs, empty location components, zero-length interval.
  core::EventInstance minimal;
  minimal.name = "x";
  minimal.when = {0, 0};
  minimal.where = core::Location::router("");
  // Long strings (well past any small-string optimization and the index
  // block granularity) and an attr map whose values carry every byte value.
  core::EventInstance big;
  big.name = std::string(64 * 1024, 'n');
  big.when = {-1'000'000'000'000LL, 2'000'000'000'000LL};
  big.where = core::Location::vpn_neighbor(std::string(4096, 'a'),
                                           std::string(4096, 'b'),
                                           std::string(4096, 'c'));
  std::string all_bytes;
  for (int b = 0; b < 256; ++b) all_bytes.push_back(static_cast<char>(b));
  big.attrs[std::string(1024, 'k')] = all_bytes;
  big.attrs[""] = "";  // empty key and value

  for (const core::EventInstance& e : {minimal, big}) {
    std::vector<std::uint8_t> bytes;
    encode_event(e, bytes);
    EXPECT_EQ(decode_event(bytes), e);
  }
}

TEST(Codec, TruncatedFrameNeverProbes) {
  util::Rng rng(7);
  core::EventInstance e = random_event(rng);
  std::vector<std::uint8_t> frame;
  encode_frame(e, frame);
  auto full = probe_frame(frame);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->frame_bytes, frame.size());
  EXPECT_EQ(decode_event(full->payload), e);
  // Every proper prefix is a torn tail: probe must refuse it.
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(
        probe_frame(std::span<const std::uint8_t>(frame.data(), len)))
        << "prefix of " << len << " bytes probed as a frame";
  }
}

// The satellite property: flip every single bit of a framed record and
// assert the CRC32C frame check rejects every mutant. (CRC32C detects all
// 1-bit errors by construction; this pins that the framing actually wires
// the checksum over both the length header's interpretation and the
// payload.)
TEST(Codec, EveryBitFlipIsRejected) {
  util::Rng rng(11);
  core::EventInstance e = random_event(rng);
  e.attrs["detail"] = "some attribute payload";
  std::vector<std::uint8_t> frame;
  encode_frame(e, frame);
  ASSERT_TRUE(probe_frame(frame).has_value());

  std::vector<std::uint8_t> mutant = frame;
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      mutant[byte] = frame[byte] ^ static_cast<std::uint8_t>(1u << bit);
      auto probed = probe_frame(mutant);
      EXPECT_FALSE(probed.has_value())
          << "bit " << bit << " of byte " << byte << " survived the CRC";
      mutant[byte] = frame[byte];
    }
  }
}

// ------------------------------------------------------- torn-tail sweep --

// Crash-recovery sweep: truncate a live WAL at every byte offset, header
// included, and assert open() recovers exactly the frames that are wholly
// present — never a partial frame, never fewer than the valid prefix — and
// accounts every byte to recovered or truncated. A WAL torn inside its
// header (a crash between the seal's truncate and write) is a fully torn
// tail to every reader: open(), the writer, verify_store (recoverable, not
// an error) and compact_store (an empty WAL).
TEST(EventLog, TornTailRecoverySweepRecoversExactPrefix) {
  util::Rng rng(23);
  std::vector<core::EventInstance> events;
  std::vector<std::size_t> frame_end;  // cumulative frame end offsets
  std::vector<std::uint8_t> wal = encode_segment_header(1, SegmentKind::kLive);
  for (int i = 0; i < 3; ++i) {
    events.push_back(random_event(rng));
    encode_frame(events.back(), wal);
    frame_end.push_back(wal.size());
  }

  for (std::size_t cut = 0; cut <= wal.size(); ++cut) {
    TempDir dir("cut" + std::to_string(cut));
    fs::create_directories(dir.path);
    write_file(dir.path / kWalName, wal, cut);

    std::size_t whole_frames =
        static_cast<std::size_t>(std::upper_bound(frame_end.begin(),
                                                  frame_end.end(), cut) -
                                 frame_end.begin());
    std::size_t valid_end =
        whole_frames == 0 ? kSegmentHeaderBytes : frame_end[whole_frames - 1];
    std::size_t torn = cut < kSegmentHeaderBytes ? cut : cut - valid_end;

    // Read path: the persisted store adopts the valid prefix read-only.
    PersistentEventStore store = PersistentEventStore::open(dir.path);
    ASSERT_EQ(store.total_instances(), whole_frames) << "cut=" << cut;
    EXPECT_EQ(store.stats().wal_events, whole_frames);
    EXPECT_EQ(store.stats().recovered_bytes, valid_end - kSegmentHeaderBytes);
    EXPECT_EQ(store.stats().truncated_bytes, torn) << "cut=" << cut;

    // Verification: a torn WAL is recoverable, never an integrity error.
    VerifyReport report = verify_store(dir.path);
    EXPECT_TRUE(report.ok()) << "cut=" << cut << ": " << report.errors.front();
    EXPECT_EQ(report.torn_wal_bytes, torn) << "cut=" << cut;
    EXPECT_EQ(report.frames, whole_frames) << "cut=" << cut;

    // Compaction (on a copy): exactly the whole frames are sealed.
    TempDir copy("compact-cut" + std::to_string(cut));
    fs::create_directories(copy.path);
    write_file(copy.path / kWalName, wal, cut);
    std::optional<std::uint64_t> seq;
    ASSERT_NO_THROW(seq = compact_store(copy.path)) << "cut=" << cut;
    EXPECT_EQ(seq.has_value(), whole_frames > 0) << "cut=" << cut;
    if (seq) {
      PersistentEventStore compacted = PersistentEventStore::open(copy.path);
      EXPECT_EQ(compacted.total_instances(), whole_frames) << "cut=" << cut;
      EXPECT_FALSE(compacted.stats().wal_present);
      EXPECT_TRUE(verify_store(copy.path, /*deep=*/true).ok());
    }
    for (std::size_t i = 0; i < whole_frames; ++i) {
      auto span = store.all(events[i].name);
      EXPECT_TRUE(std::any_of(span.begin(), span.end(),
                              [&](const core::EventInstance& got) {
                                return got == events[i];
                              }))
          << "cut=" << cut << " lost frame " << i;
    }

    // Write path: the writer re-adopts the same prefix as pending and
    // normalizes the WAL, so a second open sees no torn bytes.
    EventLogWriter writer(dir.path);
    EXPECT_EQ(writer.pending(), whole_frames);
    PersistentEventStore reopened = PersistentEventStore::open(dir.path);
    EXPECT_EQ(reopened.total_instances(), whole_frames);
    EXPECT_EQ(reopened.stats().truncated_bytes, 0u);
  }
}

TEST(EventLog, RecoveryCountsIntoMetricsRegistry) {
  util::Rng rng(29);
  std::vector<std::uint8_t> wal = encode_segment_header(1, SegmentKind::kLive);
  encode_frame(random_event(rng), wal);
  std::size_t full = wal.size();
  encode_frame(random_event(rng), wal);

  TempDir dir("metrics");
  fs::create_directories(dir.path);
  write_file(dir.path / kWalName, wal, full + 5);  // tear the second frame

  obs::MetricsRegistry registry;
  obs::ScopedRegistry scoped(&registry);
  EventLogWriter writer(dir.path);
  EXPECT_EQ(writer.pending(), 1u);
  EXPECT_EQ(registry.counter("grca_storage_recovered_bytes").value(),
            full - kSegmentHeaderBytes);
  EXPECT_EQ(registry.counter("grca_storage_truncated_bytes").value(), 5u);
}

// ------------------------------------------------- query equivalence -----

/// Adds the same events to an in-memory store and asserts the persistent
/// store answers every probe identically (values and order).
void expect_equivalent(const core::EventStore& mem,
                       const PersistentEventStore& disk, util::Rng& rng,
                       int windows) {
  ASSERT_EQ(disk.total_instances(), mem.total_instances());
  ASSERT_EQ(disk.event_names(), mem.event_names());
  for (const std::string& name : mem.event_names()) {
    auto want = mem.all(name);
    auto got = disk.all(name);
    ASSERT_EQ(got.size(), want.size()) << name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << name << "[" << i << "]";
    }
  }
  std::vector<std::string> names = mem.event_names();
  util::TimeSec base = util::make_utc(2026, 3, 1);
  for (int i = 0; i < windows; ++i) {
    const std::string& name = names[rng.below(names.size())];
    util::TimeSec from = base + rng.range(-7200, 72 * 3600);
    util::TimeSec to = from + rng.range(0, 6 * 3600);
    auto want = mem.query(name, from, to);
    auto got = disk.query(name, from, to);
    ASSERT_EQ(got.size(), want.size())
        << name << " [" << from << ", " << to << "]";
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(*got[k], *want[k]) << name << " result " << k;
    }
  }
}

TEST(PersistentStore, SealedSegmentMatchesInMemoryQueries) {
  util::Rng rng(0xABCDEF);
  core::EventStore mem;
  util::TimeSec max_start = 0;
  for (int i = 0; i < 2000; ++i) {
    core::EventInstance e = random_event(rng);
    max_start = std::max(max_start, e.when.start);
    mem.add(std::move(e));
  }
  mem.warm();

  TempDir dir("sealed");
  write_sealed_store(dir.path, mem, max_start + 1);
  PersistentEventStore disk = PersistentEventStore::open(dir.path);
  EXPECT_EQ(disk.stats().sealed_segments, 1u);
  EXPECT_FALSE(disk.stats().wal_present);
  EXPECT_EQ(disk.watermark(), max_start + 1);
  expect_equivalent(mem, disk, rng, 300);
  EXPECT_TRUE(verify_store(dir.path).ok());
}

// Multi-segment log plus a live WAL tail: the persistent store must merge
// segments in sequence order and still answer identically to an in-memory
// store fed the same events in the same arrival order.
TEST(PersistentStore, MultiSegmentPlusWalMatchesInMemoryQueries) {
  util::Rng rng(0x1234);
  core::EventStore mem;
  TempDir dir("multi");
  EventLogWriter writer(dir.path);
  // Three sealed generations plus an unsealed tail. Events within one
  // generation arrive in random order; generations are sealed in arrival
  // order, which is the partition the merge relies on.
  util::TimeSec watermark = 0;
  for (int gen = 0; gen < 4; ++gen) {
    for (int i = 0; i < 400; ++i) {
      core::EventInstance e = random_event(rng);
      watermark = std::max(watermark, e.when.start + 1);
      writer.append({&e, 1});
      mem.add(std::move(e));
    }
    if (gen < 3) {
      ASSERT_TRUE(writer.seal(watermark).has_value());
    }
  }
  mem.warm();

  PersistentEventStore disk = PersistentEventStore::open(dir.path);
  EXPECT_EQ(disk.stats().sealed_segments, 3u);
  EXPECT_TRUE(disk.stats().wal_present);
  EXPECT_EQ(disk.stats().wal_events, 400u);
  expect_equivalent(mem, disk, rng, 300);
  VerifyReport before = verify_store(dir.path, /*deep=*/true);
  EXPECT_TRUE(before.ok());
  EXPECT_EQ(before.frames, mem.total_instances());

  // Compaction folds everything into one sealed segment with the same
  // query results (all() in exactly the in-memory order, via
  // expect_equivalent), the newest watermark, and deep-verified stats.
  auto seq = compact_store(dir.path);
  ASSERT_TRUE(seq.has_value());
  PersistentEventStore compacted = PersistentEventStore::open(dir.path);
  EXPECT_EQ(compacted.stats().sealed_segments, 1u);
  EXPECT_FALSE(compacted.stats().wal_present);
  EXPECT_EQ(compacted.watermark(), watermark);
  expect_equivalent(mem, compacted, rng, 300);
  VerifyReport after = verify_store(dir.path, /*deep=*/true);
  EXPECT_TRUE(after.ok());
  EXPECT_EQ(after.frames, mem.total_instances());
}

// The torn-tail sweep with a sealed v2 segment alongside: truncating the
// WAL at every offset must never disturb the sealed columnar data, and
// recovery still adopts exactly the whole frames.
TEST(EventLog, TornTailSweepWithSealedV2Segment) {
  util::Rng rng(0x2718);
  TempDir master("master");
  std::vector<core::EventInstance> sealed_events;
  util::TimeSec watermark = 0;
  {
    EventLogWriter writer(master.path);
    for (int i = 0; i < 50; ++i) {
      sealed_events.push_back(random_event(rng));
      watermark = std::max(watermark, sealed_events.back().when.start + 1);
      writer.append({&sealed_events.back(), 1});
    }
    ASSERT_TRUE(writer.seal(watermark).has_value());
  }
  // Hand-build the WAL tail so frame boundaries are known exactly.
  std::vector<core::EventInstance> tail;
  std::vector<std::size_t> frame_end;
  std::vector<std::uint8_t> wal = encode_segment_header(2, SegmentKind::kLive);
  for (int i = 0; i < 3; ++i) {
    tail.push_back(random_event(rng));
    encode_frame(tail.back(), wal);
    frame_end.push_back(wal.size());
  }
  auto sealed_paths = list_segments(master.path);
  ASSERT_EQ(sealed_paths.size(), 1u);
  std::vector<std::uint8_t> seg_bytes = read_file(sealed_paths.front());

  for (std::size_t cut = kSegmentHeaderBytes; cut <= wal.size(); ++cut) {
    TempDir dir("cut" + std::to_string(cut));
    fs::create_directories(dir.path);
    write_file(dir.path / sealed_paths.front().filename(), seg_bytes,
               seg_bytes.size());
    write_file(dir.path / kWalName, wal, cut);

    std::size_t whole_frames =
        static_cast<std::size_t>(std::upper_bound(frame_end.begin(),
                                                  frame_end.end(), cut) -
                                 frame_end.begin());
    PersistentEventStore store = PersistentEventStore::open(dir.path);
    EXPECT_EQ(store.stats().sealed_segments, 1u);
    EXPECT_EQ(store.stats().wal_events, whole_frames);
    ASSERT_EQ(store.total_instances(), sealed_events.size() + whole_frames)
        << "cut=" << cut;
    for (std::size_t i = 0; i < whole_frames; ++i) {
      auto span = store.all(tail[i].name);
      EXPECT_TRUE(std::any_of(span.begin(), span.end(),
                              [&](const core::EventInstance& got) {
                                return got == tail[i];
                              }))
          << "cut=" << cut << " lost WAL frame " << i;
    }
  }
}

TEST(PersistentStore, OpenEmptyDirectoryThrows) {
  TempDir dir("empty");
  fs::create_directories(dir.path);
  EXPECT_THROW(PersistentEventStore::open(dir.path), StorageError);
}

TEST(PersistentStore, EmptyStoreRoundTrips) {
  core::EventStore mem;
  mem.warm();
  TempDir dir("zero");
  write_sealed_store(dir.path, mem, 12345);
  PersistentEventStore disk = PersistentEventStore::open(dir.path);
  EXPECT_EQ(disk.total_instances(), 0u);
  EXPECT_TRUE(disk.event_names().empty());
  EXPECT_EQ(disk.watermark(), 12345);
  EXPECT_TRUE(disk.query("anything", 0, 1'000'000'000).empty());
}

// -------------------------------------------------------------- verify ---

TEST(EventLog, VerifyDetectsFrameCorruption) {
  util::Rng rng(31);
  core::EventStore mem;
  for (int i = 0; i < 200; ++i) mem.add(random_event(rng));
  mem.warm();
  TempDir dir("corrupt");
  write_sealed_store(dir.path, mem, util::make_utc(2026, 4, 1));
  ASSERT_TRUE(verify_store(dir.path).ok());

  auto segments = list_segments(dir.path);
  ASSERT_EQ(segments.size(), 1u);
  std::vector<std::uint8_t> bytes = read_file(segments.front());
  // Flip one byte in the middle of the frame region (past the header, well
  // before the footer).
  bytes[kSegmentHeaderBytes + kFrameHeaderBytes + 3] ^= 0x40;
  write_file(segments.front(), bytes, bytes.size());

  VerifyReport report = verify_store(dir.path);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.errors.empty());
}

TEST(EventLog, VerifyReportsTornWalAsRecoverable) {
  util::Rng rng(37);
  TempDir dir("tornwal");
  {
    EventLogWriter writer(dir.path);
    for (int i = 0; i < 10; ++i) {
      core::EventInstance e = random_event(rng);
      writer.append({&e, 1});
    }
  }
  fs::path wal = dir.path / kWalName;
  std::vector<std::uint8_t> bytes = read_file(wal);
  write_file(wal, bytes, bytes.size() - 3);  // tear the last frame

  VerifyReport report = verify_store(dir.path);
  EXPECT_TRUE(report.ok()) << "a torn WAL tail is recoverable, not an error";
  EXPECT_GT(report.torn_wal_bytes, 0u);
}

// One multi-frame append is one WAL write of exactly the concatenated
// frames, and a crash anywhere inside that write recovers a whole-frame
// prefix: truncating the WAL at every offset past its header adopts
// exactly the frames wholly present, in append order.
TEST(EventLog, TornTailSweepAcrossOneMultiFrameAppend) {
  util::Rng rng(41);
  std::vector<core::EventInstance> events;
  for (int i = 0; i < 5; ++i) events.push_back(random_event(rng));
  std::vector<std::uint8_t> want = encode_segment_header(1, SegmentKind::kLive);
  std::vector<std::size_t> frame_end;
  for (const core::EventInstance& e : events) {
    encode_frame(e, want);
    frame_end.push_back(want.size());
  }

  TempDir master("master");
  {
    obs::MetricsRegistry registry;
    obs::ScopedRegistry scoped(&registry);
    EventLogWriter writer(master.path);
    obs::Counter& writes = registry.counter("grca_storage_wal_writes_total");
    std::uint64_t before = writes.value();
    writer.append(events);
    EXPECT_EQ(writes.value() - before, 1u);
    EXPECT_EQ(writer.pending(), events.size());
  }
  std::vector<std::uint8_t> wal = read_file(master.path / kWalName);
  ASSERT_EQ(wal, want);

  for (std::size_t cut = kSegmentHeaderBytes; cut <= wal.size(); ++cut) {
    TempDir dir("cut" + std::to_string(cut));
    fs::create_directories(dir.path);
    write_file(dir.path / kWalName, wal, cut);
    std::size_t whole_frames =
        static_cast<std::size_t>(std::upper_bound(frame_end.begin(),
                                                  frame_end.end(), cut) -
                                 frame_end.begin());
    PersistentEventStore store = PersistentEventStore::open(dir.path);
    ASSERT_EQ(store.total_instances(), whole_frames) << "cut=" << cut;
    SegmentReader::Scan scan =
        SegmentReader::open(dir.path / kWalName).scan_frames();
    ASSERT_EQ(scan.events.size(), whole_frames) << "cut=" << cut;
    for (std::size_t i = 0; i < whole_frames; ++i) {
      EXPECT_EQ(scan.events[i], events[i]) << "cut=" << cut << " frame " << i;
    }
    EventLogWriter writer(dir.path);
    EXPECT_EQ(writer.pending(), whole_frames) << "cut=" << cut;
  }
}

// ----------------------------------------- end-to-end diagnosis identity --

struct StudyFixture {
  t::Network sim_net;
  t::Network rca_net;
  sim::StudyOutput study;

  StudyFixture() {
    t::TopoParams tp;
    tp.pops = 4;
    tp.pers_per_pop = 3;
    tp.customers_per_per = 5;
    sim_net = t::generate_isp(tp);
    rca_net = t::build_network_from_configs(
        t::render_all_configs(sim_net), t::render_layer1_inventory(sim_net));
    sim::BgpStudyParams params;
    params.days = 2;
    params.target_symptoms = 100;
    params.noise = 0.3;
    study = sim::run_bgp_study(sim_net, params);
  }
};

/// Every field of a diagnosis that the paper's result browser surfaces,
/// rendered to a string — pointer-free, so fingerprints compare across
/// backends.
std::string fingerprint(const core::Diagnosis& d) {
  std::ostringstream out;
  auto instance = [&](const core::EventInstance* e) {
    out << e->name << "@" << e->when.start << "-" << e->when.end << "@"
        << e->where.key();
    for (const auto& [k, v] : e->attrs) out << ";" << k << "=" << v;
    out << "|";
  };
  out << d.symptom.where.key() << "@" << d.symptom.when.start << " -> "
      << d.primary() << "\n";
  for (const core::EvidenceNode& n : d.evidence) {
    out << "  " << n.event << " p" << n.priority << " d" << n.depth << ": ";
    for (const core::EventInstance* e : n.instances) instance(e);
    out << "\n";
  }
  for (const core::RootCause& c : d.causes) {
    out << "  cause " << c.event << " p" << c.priority << ": ";
    for (const core::EventInstance* e : c.instances) instance(e);
    out << "\n";
  }
  return out.str();
}

// The acceptance gate: diagnosing against a reopened persistent store
// yields byte-identical verdicts (same diagnoses, same order, same
// evidence) as a fresh extraction run over the same corpus.
TEST(PersistentStore, DiagnosisByteIdenticalAcrossFormatsAndBackends) {
  StudyFixture f;
  apps::Pipeline fresh(f.rca_net, f.study.records);
  auto batch = fresh.diagnose_all(apps::bgp::build_graph(), 1);
  ASSERT_GT(batch.size(), 20u);

  util::TimeSec watermark = 0;
  for (const std::string& name : fresh.store().event_names()) {
    for (const core::EventInstance& e : fresh.store().all(name)) {
      watermark = std::max(watermark, e.when.start + 1);
    }
  }
  TempDir dir("diag");
  write_sealed_store(dir.path, fresh.store(), watermark);

  auto disk = std::make_shared<PersistentEventStore>(
      PersistentEventStore::open(dir.path));
  EXPECT_EQ(disk->stats().sealed_segments, 1u);
  EXPECT_EQ(disk->total_instances(), fresh.store().total_instances());
  apps::Pipeline loaded(f.rca_net, f.study.records, disk);
  auto replayed = loaded.diagnose_all(apps::bgp::build_graph(), 1);

  ASSERT_EQ(replayed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i].symptom, replayed[i].symptom) << "diagnosis " << i;
    ASSERT_EQ(fingerprint(batch[i]), fingerprint(replayed[i]))
        << "diagnosis " << i;
  }
}

// ------------------------------------------------ streaming kill+resume --

std::string verdict_key(const core::Diagnosis& d) {
  return d.symptom.where.key() + "@" + std::to_string(d.symptom.when.start);
}

// Kill a persisted streaming engine mid-stream, start a fresh one on the
// same directory, re-feed the stream: the resumed run emits exactly the
// diagnoses the killed run never got to, with the same verdicts as an
// uninterrupted run, and no duplicates.
TEST(Streaming, KillAndResumeCompletesWithoutDuplicates) {
  StudyFixture f;
  apps::StreamingOptions options;
  options.freeze_horizon = 900;
  options.settle = 400;
  options.extract.flap_pair_window = 600;

  auto run_ticks = [&](apps::StreamingRca& stream,
                       std::vector<core::Diagnosis>& out,
                       util::TimeSec stop_at) {
    util::TimeSec next_tick = f.study.records.front().true_utc;
    for (const telemetry::RawRecord& r : f.study.records) {
      while (r.true_utc >= next_tick && next_tick <= stop_at) {
        for (auto& d : stream.advance(next_tick)) out.push_back(std::move(d));
        next_tick += 300;
      }
      if (r.true_utc > stop_at) return;
      stream.ingest(r);
    }
  };
  const util::TimeSec no_stop = std::numeric_limits<util::TimeSec>::max();

  // Uninterrupted reference.
  std::map<std::string, std::string> reference;
  {
    apps::StreamingRca stream(f.rca_net, apps::bgp::build_graph(), options);
    std::vector<core::Diagnosis> all;
    run_ticks(stream, all, no_stop);
    for (auto& d : stream.drain()) all.push_back(std::move(d));
    for (const core::Diagnosis& d : all) reference[verdict_key(d)] = d.primary();
    ASSERT_GT(reference.size(), 20u);
  }

  TempDir dir("resume");
  options.persist_dir = dir.path;
  options.persist_seal_every = 300;  // seal on every tick: exact resume point

  // First incarnation: killed (destroyed without drain) mid-stream.
  std::vector<core::Diagnosis> before_kill;
  util::TimeSec kill_at = f.study.records.front().true_utc + 24 * 3600;
  {
    apps::StreamingRca stream(f.rca_net, apps::bgp::build_graph(), options);
    EXPECT_FALSE(stream.resumed_from().has_value());
    run_ticks(stream, before_kill, kill_at);
    ASSERT_GT(stream.diagnosed(), 0u) << "kill point too early to be a test";
  }

  // Second incarnation: resumes from the sealed log, re-fed from the top.
  std::vector<core::Diagnosis> after_resume;
  {
    apps::StreamingRca stream(f.rca_net, apps::bgp::build_graph(), options);
    ASSERT_TRUE(stream.resumed_from().has_value());
    run_ticks(stream, after_resume, no_stop);
    for (auto& d : stream.drain()) after_resume.push_back(std::move(d));
  }

  std::map<std::string, std::string> merged;
  for (const core::Diagnosis& d : before_kill) {
    ASSERT_TRUE(merged.emplace(verdict_key(d), d.primary()).second);
  }
  for (const core::Diagnosis& d : after_resume) {
    ASSERT_TRUE(merged.emplace(verdict_key(d), d.primary()).second)
        << "resumed run re-diagnosed " << verdict_key(d);
  }
  EXPECT_FALSE(before_kill.empty());
  EXPECT_FALSE(after_resume.empty());
  ASSERT_EQ(merged.size(), reference.size());
  for (const auto& [key, primary] : reference) {
    auto it = merged.find(key);
    ASSERT_NE(it, merged.end()) << "symptom lost across the kill: " << key;
    EXPECT_EQ(it->second, primary) << key;
  }

  // The log left behind is intact and verifiable.
  EXPECT_TRUE(verify_store(dir.path).ok());
}

// The live persist directory is always a faithful image of what the engine
// has frozen: after every advance(), a reader opening it sees exactly the
// stream store's events, sealed segments plus WAL, in the same order.
TEST(Streaming, PersistDirShowsExactlyTheFrozenEventsAfterEachAdvance) {
  StudyFixture f;
  TempDir dir("live");
  apps::StreamingOptions options;
  options.freeze_horizon = 900;
  options.settle = 400;
  options.extract.flap_pair_window = 600;
  options.persist_dir = dir.path;
  options.persist_seal_every = 3 * 3600;

  apps::StreamingRca stream(f.rca_net, apps::bgp::build_graph(), options);
  std::size_t ticks = 0, max_wal_events = 0, max_sealed = 0;
  auto check = [&] {
    PersistentEventStore disk = PersistentEventStore::open(dir.path);
    max_wal_events = std::max(max_wal_events, disk.stats().wal_events);
    max_sealed = std::max(max_sealed, disk.stats().sealed_segments);
    const core::EventStore& mem = stream.store();
    ASSERT_EQ(disk.total_instances(), mem.total_instances())
        << "tick " << ticks;
    ASSERT_EQ(disk.event_names(), mem.event_names()) << "tick " << ticks;
    for (const std::string& name : mem.event_names()) {
      auto want = mem.all(name);
      auto got = disk.all(name);
      ASSERT_EQ(got.size(), want.size()) << name << " tick " << ticks;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << name << "[" << i << "] tick " << ticks;
      }
    }
  };
  util::TimeSec next_tick = f.study.records.front().true_utc;
  for (const telemetry::RawRecord& r : f.study.records) {
    while (r.true_utc >= next_tick) {
      stream.advance(next_tick);
      ++ticks;
      ASSERT_NO_FATAL_FAILURE(check());
      next_tick += 300;
    }
    stream.ingest(r);
  }
  stream.drain();
  ASSERT_NO_FATAL_FAILURE(check());
  EXPECT_GT(stream.store().total_instances(), 100u);
  EXPECT_GT(max_wal_events, 0u) << "no tick read events from the WAL";
  EXPECT_GT(max_sealed, 1u) << "no tick read several sealed segments";
}

}  // namespace
}  // namespace grca::storage
