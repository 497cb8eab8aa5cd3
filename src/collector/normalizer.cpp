// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "collector/normalizer.h"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <limits>
#include <span>
#include <tuple>
#include <utility>

#include "util/fork_join.h"
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
  if (!normalize_impl(raw, out, resolved_)) {
    ++dropped_;
    if (feed_health_) feed_health_->on_rejected(raw.source);
    return false;
  }
  if (feed_health_) {
    arrival_high_ = std::max(arrival_high_, out.utc);
    feed_health_->on_record(out.source, out.utc, arrival_high_);
  }
  return true;
}

const Normalizer::Resolved& Normalizer::resolve(Memo& memo,
                                                Convention convention,
                                                util::Symbol name) const {
  std::vector<Resolved>& names = memo[convention];
  if (name.id() >= names.size()) names.resize(name.id() + 1);
  Resolved& r = names[name.id()];
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

bool Normalizer::normalize_impl(const RawRecord& raw, NormalizedRecord& out,
                                Memo& memo) const {
  if (!locate(raw, out, memo)) return false;
  out.field = raw.field;
  out.body = raw.body;
  out.value = raw.value;
  out.attrs = raw.attrs;
  return true;
}

bool Normalizer::locate(const RawRecord& raw, NormalizedRecord& out,
                        Memo& memo) const {
  out.source = raw.source;
  out.router = util::Symbol();
  out.device = util::Symbol();
  out.interface = util::Symbol();
  switch (raw.source) {
    case SourceType::kSyslog: {
      // Device-local wall-clock time, in the router's PoP timezone.
      const Resolved& d = resolve(memo, kUpperRouter, raw.device);
      if (!d.known) return false;
      out.router = d.name;
      out.utc = d.zone->to_utc(raw.timestamp);
      break;
    }
    case SourceType::kSnmp: {
      const Resolved& d = resolve(memo, kFqdn, raw.device);
      if (!d.known) return false;
      out.router = d.name;
      auto it = raw.attrs.find(kInterfaceKey);
      if (it != raw.attrs.end()) out.interface = it->second;
      out.utc = raw.timestamp;  // SNMP poller stamps UTC
      break;
    }
    case SourceType::kLayer1Log: {
      const Resolved& d = resolve(memo, kLayer1, raw.device);
      if (!d.known) return false;
      out.device = raw.device;
      out.utc = d.zone->to_utc(raw.timestamp);
      break;
    }
    case SourceType::kTacacs:
    case SourceType::kWorkflowLog: {
      if (!resolve(memo, kRouter, raw.device).known) return false;
      out.router = raw.device;
      out.utc = raw.timestamp;
      break;
    }
    case SourceType::kOspfMon: {
      auto rit = raw.attrs.find(kRouterKey);
      auto iit = raw.attrs.find(kInterfaceKey);
      if (rit == raw.attrs.end() || iit == raw.attrs.end() ||
          !resolve(memo, kRouter, rit->second).known) {
        return false;
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
      return false;
  }
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
  /// The distinct symbols added, in the order first added.
  const std::vector<util::Symbol>& symbols() const { return symbols_; }
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
  std::uint32_t index;  // into the stream
};

/// One worker's contiguous range of the stream and what it found there.
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
  /// One per record kept, in stream order until sorted. Names are symbol
  /// ids until ranked.
  std::vector<SortKey> keys;
  TextRanks names;  // only add()ed to
  util::TimeSec high = std::numeric_limits<util::TimeSec>::min();  // max utc
  obs::FeedHealthMonitor::Batch health;
  std::size_t rejected = 0;
};

}  // namespace

std::vector<NormalizedRecord> Normalizer::normalize_stream(
    const telemetry::RecordStream& stream, unsigned workers) const {
  if (workers == 0) workers = util::hardware_threads();
  workers = static_cast<unsigned>(std::clamp<std::size_t>(
      stream.size() / kNormalizeBlockRecords, 1, workers));
  // The output is sized first, on this thread: the later, smaller arrays
  // then do not sit below it in the heap.
  std::vector<NormalizedRecord> out;
  out.reserve(stream.size());
  std::vector<Range> ranges(workers);
  std::vector<Memo> memos(workers);
  for (unsigned w = 0; w < workers; ++w) {
    ranges[w].begin = stream.size() * w / workers;
    ranges[w].end = stream.size() * (w + 1) / workers;
    ranges[w].keys.reserve(ranges[w].end - ranges[w].begin);
  }
  // Each range's sort keys, from the fields normalization derives.
  util::fork_join(workers, [&](unsigned w) {
    Range& range = ranges[w];
    NormalizedRecord head;
    for (std::size_t i = range.begin; i < range.end; ++i) {
      const RawRecord& raw = stream[i];
      if (!locate(raw, head, memos[w])) {
        ++range.rejected;
        if (feed_health_) range.health.reject(raw.source);
        continue;
      }
      for (util::Symbol s : {head.router, head.device, head.interface,
                             raw.field}) {
        range.names.add(s);
      }
      range.high = std::max(range.high, head.utc);
      range.keys.push_back(SortKey{
          head.utc, static_cast<std::uint32_t>(head.source), head.router.id(),
          head.device.id(), head.interface.id(), raw.field.id(),
          static_cast<std::uint32_t>(i)});
    }
  });

  TextRanks ranks;
  std::size_t kept = 0;
  for (const Range& range : ranges) {
    for (util::Symbol s : range.names.symbols()) ranks.add(s);
    kept += range.keys.size();
  }
  ranks.rank();
  // A record's arrival lag is against the highest utc before it: the
  // earlier ranges' and its own range's so far.
  std::vector<util::TimeSec> high_before(workers);
  for (unsigned w = 0; w < workers; ++w) {
    high_before[w] = arrival_high_;
    arrival_high_ = std::max(arrival_high_, ranges[w].high);
  }
  // normalized_order, so extraction does not depend on arrival order. The
  // integer keys (a prefix of it) settle almost every comparison; ties on
  // them compare the fields normalization copies from the raw records.
  auto before = [&stream](const SortKey& a, const SortKey& b) {
    if (auto c = std::tie(a.utc, a.source, a.router, a.device, a.interface,
                          a.field) <=> std::tie(b.utc, b.source, b.router,
                                                b.device, b.interface,
                                                b.field);
        c != 0) {
      return c < 0;
    }
    const RawRecord& x = stream[a.index];
    const RawRecord& y = stream[b.index];
    if (auto c = std::tie(x.body, x.value, x.attrs) <=>
                 std::tie(y.body, y.value, y.attrs);
        c != 0) {
      return c < 0;
    }
    return a.index < b.index;
  };
  // One more thread builds the output while the ranges sort.
  util::fork_join(workers == 1 ? 1 : workers + 1, [&](unsigned w) {
    if (w == workers || workers == 1) out.resize(kept);
    if (w == workers) return;
    Range& range = ranges[w];
    util::TimeSec high = high_before[w];
    for (SortKey& k : range.keys) {
      if (feed_health_) {
        high = std::max(high, k.utc);
        range.health.record(static_cast<SourceType>(k.source), k.utc, high);
      }
      for (std::uint32_t* name :
           {&k.router, &k.device, &k.interface, &k.field}) {
        *name = ranks[*name];
      }
    }
    std::sort(range.keys.begin(), range.keys.end(), before);
  });

  // One merge of the sorted ranges gives the one-sort order (the order is
  // total), as the stream index each output position takes. The head that
  // comes first runs on while it stays before every other head.
  std::vector<std::uint32_t> order;
  order.reserve(kept);
  {
    std::vector<std::span<const SortKey>> runs;
    for (const Range& range : ranges) {
      if (!range.keys.empty()) runs.emplace_back(range.keys);
    }
    while (!runs.empty()) {
      std::size_t first = 0;
      for (std::size_t r = 1; r < runs.size(); ++r) {
        if (before(runs[r].front(), runs[first].front())) first = r;
      }
      const SortKey* other = nullptr;  // the first of the other heads
      for (std::size_t r = 0; r < runs.size(); ++r) {
        if (r != first && (!other || before(runs[r].front(), *other))) {
          other = &runs[r].front();
        }
      }
      std::span<const SortKey>& run = runs[first];
      do {
        order.push_back(run.front().index);
        run = run.subspan(1);
      } while (!run.empty() && (!other || before(run.front(), *other)));
      if (run.empty()) {
        runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(first));
      }
    }
  }
  obs::FeedHealthMonitor::Batch health;
  for (Range& range : ranges) {
    dropped_ += range.rejected;
    health.merge(range.health);
    range = Range();  // its keys are spent
  }
  if (feed_health_) feed_health_->add(health);

  // Each worker normalizes a contiguous run of output positions.
  util::fork_join(workers, [&](unsigned w) {
    const std::size_t end = kept * (w + 1) / workers;
    for (std::size_t j = kept * w / workers; j < end; ++j) {
      normalize_impl(stream[order[j]], out[j], memos[w]);
    }
  });
  return out;
}

}  // namespace grca::collector
