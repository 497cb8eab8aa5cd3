// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "collector/normalizer.h"

#include <algorithm>
#include <cctype>
#include <compare>
#include <cstdint>
#include <tuple>

#include "util/strings.h"

namespace grca::collector {

using telemetry::RawRecord;
using telemetry::SourceType;

std::partial_ordering normalized_order(const NormalizedRecord& x,
                                       const NormalizedRecord& y) {
  return std::tie(x.utc, x.source, x.router, x.device, x.interface, x.field,
                  x.body, x.value, x.attrs) <=>
         std::tie(y.utc, y.source, y.router, y.device, y.interface, y.field,
                  y.body, y.value, y.attrs);
}

std::string render(const NormalizedRecord& record) {
  std::string out = util::format_utc(record.utc);
  out += " [";
  out += telemetry::to_string(record.source);
  out += "] ";
  if (!record.router.empty()) {
    out += record.router;
    out += " ";
  } else if (!record.device.empty()) {
    out += record.device;
    out += " ";
  }
  if (!record.interface.empty()) {
    out += record.interface;
    out += " ";
  }
  if (!record.field.empty()) {
    out += record.field;
    out += "=";
    out += util::format_double(record.value, 1);
    out += " ";
  }
  out += record.body;
  for (const auto& [k, v] : record.attrs) {
    out += " ";
    out += k;
    out += "=";
    out += v;
  }
  return out;
}

Normalizer::Normalizer(const topology::Network& net,
                       obs::FeedHealthMonitor* feed_health)
    : net_(net), feed_health_(feed_health) {
  for (const topology::Layer1Device& d : net.layer1_devices()) {
    l1_by_name_.emplace(d.name, d.id);
  }
}

bool Normalizer::normalize(const RawRecord& raw, NormalizedRecord& out) const {
  if (!normalize_impl(raw, out)) {
    if (feed_health_) feed_health_->on_rejected(raw.source);
    return false;
  }
  if (feed_health_) {
    arrival_high_ = std::max(arrival_high_, out.utc);
    feed_health_->on_record(out.source, out.utc, arrival_high_);
  }
  return true;
}

bool Normalizer::normalize_impl(const RawRecord& raw,
                                NormalizedRecord& out) const {
  out.source = raw.source;
  out.router.clear();
  out.device.clear();
  out.interface.clear();
  switch (raw.source) {
    case SourceType::kSyslog: {
      out.router.resize(raw.device.size());
      std::transform(raw.device.begin(), raw.device.end(), out.router.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      auto router = net_.find_router(out.router);
      if (!router) return reject();
      const topology::Router& r = net_.router(*router);
      out.utc = net_.pop(r.pop).timezone.to_utc(raw.timestamp);
      break;
    }
    case SourceType::kSnmp: {
      // Strip the poller's FQDN suffix.
      std::string_view name = raw.device;
      name = name.substr(0, name.find('.'));
      if (!net_.find_router(name)) return reject();
      out.router.assign(name);
      auto it = raw.attrs.find("interface");
      if (it != raw.attrs.end()) out.interface = it->second;
      out.utc = raw.timestamp;  // SNMP poller stamps UTC
      break;
    }
    case SourceType::kLayer1Log: {
      auto it = l1_by_name_.find(raw.device);
      if (it == l1_by_name_.end()) return reject();
      out.device = raw.device;
      const topology::Layer1Device& d = net_.layer1_device(it->second);
      out.utc = net_.pop(d.pop).timezone.to_utc(raw.timestamp);
      break;
    }
    case SourceType::kTacacs:
    case SourceType::kWorkflowLog: {
      if (!net_.find_router(raw.device)) return reject();
      out.router = raw.device;
      out.utc = raw.timestamp;
      break;
    }
    case SourceType::kOspfMon: {
      auto rit = raw.attrs.find("router");
      auto iit = raw.attrs.find("interface");
      if (rit == raw.attrs.end() || iit == raw.attrs.end() ||
          !net_.find_router(rit->second)) {
        return reject();
      }
      out.router = rit->second;
      out.interface = iit->second;
      out.utc = raw.timestamp;
      break;
    }
    case SourceType::kBgpMon:
    case SourceType::kPerfMon:
    case SourceType::kCdnMon:
    case SourceType::kServerLog: {
      out.utc = raw.timestamp;
      break;
    }
    default:
      return reject();
  }
  out.field = raw.field;
  out.body = raw.body;
  out.value = raw.value;
  out.attrs = raw.attrs;
  return true;
}

namespace {

/// The leading `sizeof(std::uint64_t)` bytes of `text` from `offset`,
/// big-endian and zero-padded, so integer order is byte-string order.
std::uint64_t pack(const std::string& text, std::size_t offset) {
  std::uint64_t word = 0;
  for (std::size_t i = offset; i < offset + sizeof(word); ++i) {
    word = (word << 8) |
           (i < text.size() ? static_cast<unsigned char>(text[i]) : 0u);
  }
  return word;
}

/// A record's place in the normalize order: the leading sort fields, with
/// the router name's first 16 bytes packed into integers.
struct SortKey {
  util::TimeSec utc;
  std::uint32_t source;
  std::uint32_t index;  // into the unsorted records
  std::uint64_t router_hi;
  std::uint64_t router_lo;
};

}  // namespace

std::vector<NormalizedRecord> Normalizer::normalize_stream(
    const telemetry::RecordStream& stream) const {
  std::vector<NormalizedRecord> out;
  out.reserve(stream.size());
  for (const RawRecord& raw : stream) {
    if (!normalize(raw, out.emplace_back())) out.pop_back();
  }
  // normalized_order, so extraction does not depend on arrival order. The
  // compact keys (a prefix of it) settle almost every comparison; only
  // ties on them compare the records' full fields.
  std::vector<SortKey> keys(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const NormalizedRecord& r = out[i];
    keys[i] = SortKey{r.utc, static_cast<std::uint32_t>(r.source),
                      static_cast<std::uint32_t>(i), pack(r.router, 0),
                      pack(r.router, sizeof(std::uint64_t))};
  }
  std::sort(keys.begin(), keys.end(), [&out](const SortKey& a,
                                             const SortKey& b) {
    if (auto c = std::tie(a.utc, a.source, a.router_hi, a.router_lo) <=>
                 std::tie(b.utc, b.source, b.router_hi, b.router_lo);
        c != 0) {
      return c < 0;
    }
    if (auto c = normalized_order(out[a.index], out[b.index]); c != 0) {
      return c < 0;
    }
    return a.index < b.index;
  });
  // Apply the permutation in place, one cycle at a time: position i takes
  // the record at keys[i].index. A visited position points at itself.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].index == i) continue;
    NormalizedRecord held = std::move(out[i]);
    std::size_t at = i;
    for (std::size_t from = keys[at].index; from != i;
         from = keys[at].index) {
      out[at] = std::move(out[from]);
      keys[at].index = static_cast<std::uint32_t>(at);
      at = from;
    }
    out[at] = std::move(held);
    keys[at].index = static_cast<std::uint32_t>(at);
  }
  return out;
}

}  // namespace grca::collector
