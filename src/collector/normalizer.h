// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The ingest normalizer. It owns the per-source quirks:
//  - syslog: UPPERCASE router names -> canonical; device-local time -> UTC
//    using the router's PoP timezone (learned from configs);
//  - SNMP: "<router>.net.example" FQDNs -> canonical; already UTC;
//  - layer-1 logs: transport-device names resolved against the inventory;
//    device-local time -> UTC via the device's PoP;
//  - TACACS / monitors / workflow: canonical names, already UTC.
// Records that reference devices unknown to the inventory are dropped and
// counted (real collectors do the same; the count is an ingest health
// metric).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <limits>
#include <vector>

#include "collector/normalized.h"
#include "obs/feed_health.h"
#include "topology/network.h"
#include "util/strings.h"

namespace grca::collector {

/// The content-deterministic record order: utc, source, router, device,
/// interface, field, body, value, then attrs. `normalize_stream` sorts by
/// it (arrival index breaks the remaining ties, between records equal in
/// every field) and the streaming engine inserts by it, so batch and
/// stream extraction see equal-utc records in one order whatever their
/// arrival order.
std::partial_ordering normalized_order(const NormalizedRecord& x,
                                       const NormalizedRecord& y);

class Normalizer {
 public:
  /// When `feed_health` is supplied, every normalized record is reported to
  /// it (per-source counts + arrival lag against the running high-water
  /// mark) and every unknown-device rejection is counted per source.
  explicit Normalizer(const topology::Network& net,
                      obs::FeedHealthMonitor* feed_health = nullptr);

  /// Normalizes one raw record; returns false (and counts it) when the
  /// record references an unknown device.
  bool normalize(const telemetry::RawRecord& raw, NormalizedRecord& out) const;

  /// Normalizes a stream, dropping unknown-device records, in
  /// normalized_order. `workers` threads (0 means util::hardware_threads(),
  /// at most one per kNormalizeBlockRecords records) each take a contiguous
  /// range of the stream. The output, dropped() and what the feed-health
  /// monitor reports are the same at any worker count; the monitor gets
  /// the whole call's records at once.
  std::vector<NormalizedRecord> normalize_stream(
      const telemetry::RecordStream& stream, unsigned workers = 0) const;

  /// The fewest records a normalize_stream worker is given.
  static constexpr std::size_t kNormalizeBlockRecords = 4096;

  std::size_t dropped() const noexcept { return dropped_; }

 private:
  /// The naming conventions a device name can arrive in.
  enum Convention : std::uint8_t {
    kUpperRouter,  // syslog: the router name in uppercase
    kFqdn,         // SNMP: "<router>.net.example"
    kRouter,       // the canonical router name
    kLayer1,       // a layer-1 device name
    kConventions,
  };
  /// A device name resolved under one convention.
  struct Resolved {
    util::Symbol name;  // canonical router (or layer-1 device) name
    const util::TimeZone* zone = nullptr;  // its PoP's
    bool known = false;
    bool seen = false;  // resolved already
  };

  /// Per convention, indexed by the device name's symbol id.
  using Memo = std::array<std::vector<Resolved>, kConventions>;

  /// Normalizes `raw` into `out`; false for an unknown device (the caller
  /// counts it).
  bool normalize_impl(const telemetry::RawRecord& raw, NormalizedRecord& out,
                      Memo& memo) const;
  /// The part of normalize_impl that derives fields: sets only `out`'s
  /// source, router, device, interface and utc.
  bool locate(const telemetry::RawRecord& raw, NormalizedRecord& out,
              Memo& memo) const;
  /// `name` under `convention`, memoized in `memo`.
  const Resolved& resolve(Memo& memo, Convention convention,
                          util::Symbol name) const;
  Resolved lookup(Convention convention, std::string_view name) const;

  const topology::Network& net_;
  util::StringMap<topology::Layer1DeviceId> l1_by_name_;
  /// normalize()'s memo; each normalize_stream worker keeps its own.
  mutable Memo resolved_;
  obs::FeedHealthMonitor* feed_health_ = nullptr;
  mutable std::size_t dropped_ = 0;
  /// Highest UTC seen so far: the arrival-time proxy for feed lag (records
  /// are reported in arrival order, so the stream's high-water mark is when
  /// "now" was when the record landed).
  mutable util::TimeSec arrival_high_ = std::numeric_limits<util::TimeSec>::min();
};

}  // namespace grca::collector
