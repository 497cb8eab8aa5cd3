// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "collector/normalizer.h"

#include <algorithm>
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
    out += record.router.view();
    out += " ";
  } else if (!record.device.empty()) {
    out += record.device.view();
    out += " ";
  }
  if (!record.interface.empty()) {
    out += record.interface.view();
    out += " ";
  }
  if (!record.field.empty()) {
    out += record.field.view();
    out += "=";
    out += util::format_double(record.value, 1);
    out += " ";
  }
  out += record.body;
  for (const auto& [k, v] : record.attrs) {
    out += " ";
    out += k.view();
    out += "=";
    out += v.view();
  }
  return out;
}

namespace {

const util::Symbol kInterfaceKey("interface");
const util::Symbol kRouterKey("router");

}  // namespace

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

const Normalizer::Resolved& Normalizer::resolve(Convention convention,
                                                util::Symbol name) const {
  std::vector<Resolved>& memo = resolved_[convention];
  if (name.id() >= memo.size()) memo.resize(name.id() + 1);
  Resolved& r = memo[name.id()];
  if (!r.seen) r = lookup(convention, name.view());
  return r;
}

Normalizer::Resolved Normalizer::lookup(Convention convention,
                                        std::string_view name) const {
  Resolved r;
  r.seen = true;
  if (convention == kLayer1) {
    auto it = l1_by_name_.find(name);
    if (it == l1_by_name_.end()) return r;
    const topology::Layer1Device& d = net_.layer1_device(it->second);
    r.name = util::Symbol(d.name);
    r.zone = &net_.pop(d.pop).timezone;
    r.known = true;
    return r;
  }
  std::string lower;
  if (convention == kUpperRouter) {
    lower = util::to_lower(name);
    name = lower;
  } else if (convention == kFqdn) {
    name = name.substr(0, name.find('.'));  // the poller's FQDN suffix
  }
  auto router = net_.find_router(name);
  if (!router) return r;
  const topology::Router& rt = net_.router(*router);
  r.name = util::Symbol(rt.name);
  r.zone = &net_.pop(rt.pop).timezone;
  r.known = true;
  return r;
}

bool Normalizer::normalize_impl(const RawRecord& raw,
                                NormalizedRecord& out) const {
  out.source = raw.source;
  out.router = util::Symbol();
  out.device = util::Symbol();
  out.interface = util::Symbol();
  switch (raw.source) {
    case SourceType::kSyslog: {
      // Device-local wall-clock time, in the router's PoP timezone.
      const Resolved& d = resolve(kUpperRouter, raw.device);
      if (!d.known) return reject();
      out.router = d.name;
      out.utc = d.zone->to_utc(raw.timestamp);
      break;
    }
    case SourceType::kSnmp: {
      const Resolved& d = resolve(kFqdn, raw.device);
      if (!d.known) return reject();
      out.router = d.name;
      auto it = raw.attrs.find(kInterfaceKey);
      if (it != raw.attrs.end()) out.interface = it->second;
      out.utc = raw.timestamp;  // SNMP poller stamps UTC
      break;
    }
    case SourceType::kLayer1Log: {
      const Resolved& d = resolve(kLayer1, raw.device);
      if (!d.known) return reject();
      out.device = raw.device;
      out.utc = d.zone->to_utc(raw.timestamp);
      break;
    }
    case SourceType::kTacacs:
    case SourceType::kWorkflowLog: {
      if (!resolve(kRouter, raw.device).known) return reject();
      out.router = raw.device;
      out.utc = raw.timestamp;
      break;
    }
    case SourceType::kOspfMon: {
      auto rit = raw.attrs.find(kRouterKey);
      auto iit = raw.attrs.find(kInterfaceKey);
      if (rit == raw.attrs.end() || iit == raw.attrs.end() ||
          !resolve(kRouter, rit->second).known) {
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

/// Ranks of symbols in text order, for the symbols added: comparing two
/// ranks compares their texts.
class TextRanks {
 public:
  void add(util::Symbol s) {
    if (s.id() >= rank_.size()) rank_.resize(s.id() + 1, kUnranked);
    if (rank_[s.id()] == kUnranked) {
      rank_[s.id()] = 0;
      symbols_.push_back(s);
    }
  }
  /// Ranks every symbol added; call once, after the last add().
  void rank() {
    std::sort(symbols_.begin(), symbols_.end());
    for (std::size_t i = 0; i < symbols_.size(); ++i) {
      rank_[symbols_[i].id()] = static_cast<std::uint32_t>(i);
    }
  }
  std::uint32_t operator[](std::uint32_t id) const { return rank_[id]; }

 private:
  static constexpr std::uint32_t kUnranked = ~std::uint32_t{0};
  std::vector<std::uint32_t> rank_;  // by symbol id
  std::vector<util::Symbol> symbols_;
};

/// A record's place in the normalize order: its leading fields, names as
/// text ranks.
struct SortKey {
  util::TimeSec utc;
  std::uint32_t source;
  std::uint32_t router, device, interface, field;
  std::uint32_t index;  // into the unsorted records
};

}  // namespace

std::vector<NormalizedRecord> Normalizer::normalize_stream(
    const telemetry::RecordStream& stream) const {
  std::vector<NormalizedRecord> out;
  out.reserve(stream.size());
  // Sort keys are built with symbol ids, which become text ranks once every
  // name is known.
  std::vector<SortKey> keys;
  keys.reserve(stream.size());
  TextRanks ranks;
  for (const RawRecord& raw : stream) {
    NormalizedRecord& r = out.emplace_back();
    if (!normalize(raw, r)) {
      out.pop_back();
      continue;
    }
    for (util::Symbol s : {r.router, r.device, r.interface, r.field}) {
      ranks.add(s);
    }
    keys.push_back(SortKey{r.utc, static_cast<std::uint32_t>(r.source),
                           r.router.id(), r.device.id(), r.interface.id(),
                           r.field.id(),
                           static_cast<std::uint32_t>(keys.size())});
  }
  ranks.rank();
  for (SortKey& k : keys) {
    for (std::uint32_t* name : {&k.router, &k.device, &k.interface, &k.field}) {
      *name = ranks[*name];
    }
  }
  // normalized_order, so extraction does not depend on arrival order. The
  // integer keys (a prefix of it) settle almost every comparison; only
  // ties on them compare the records' remaining fields.
  auto before = [&out](const SortKey& a, const SortKey& b) {
    if (auto c = std::tie(a.utc, a.source, a.router, a.device, a.interface,
                          a.field) <=> std::tie(b.utc, b.source, b.router,
                                                b.device, b.interface,
                                                b.field);
        c != 0) {
      return c < 0;
    }
    if (auto c = normalized_order(out[a.index], out[b.index]); c != 0) {
      return c < 0;
    }
    return a.index < b.index;
  };
  std::sort(keys.begin(), keys.end(), before);
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
