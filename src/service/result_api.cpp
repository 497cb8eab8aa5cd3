// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "service/result_api.h"

#include <algorithm>
#include <sstream>

#include "obs/export.h"
#include "util/strings.h"

namespace grca::service {

namespace {

using obs::json_escape;

std::string quoted(const std::string& text) {
  return "\"" + json_escape(text) + "\"";
}

void render_instances(std::ostringstream& out,
                      const std::vector<ApiInstance>& instances) {
  out << "[";
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const ApiInstance& inst = instances[i];
    out << (i ? "," : "") << "{\"start\":" << inst.when.start
        << ",\"end\":" << inst.when.end
        << ",\"location\":" << quoted(inst.location) << "}";
  }
  out << "]";
}

}  // namespace

ApiItem to_api_item(const core::Diagnosis& diagnosis) {
  ApiItem item;
  item.symptom = diagnosis.symptom.name;
  item.when = diagnosis.symptom.when;
  item.location = diagnosis.symptom.where.key();
  item.primary = diagnosis.primary();
  item.priority =
      diagnosis.causes.empty() ? 0 : diagnosis.causes.front().priority;
  item.elapsed_ms = diagnosis.elapsed_ms;
  for (const core::EvidenceNode& node : diagnosis.evidence) {
    if (node.depth == 0) continue;  // the symptom itself
    ApiEvidence evidence;
    evidence.event = node.event;
    evidence.priority = node.priority;
    evidence.depth = node.depth;
    evidence.instances.reserve(node.instances.size());
    for (const core::EventInstance* inst : node.instances) {
      evidence.instances.push_back({inst->when, inst->where.key()});
    }
    item.evidence.push_back(std::move(evidence));
  }
  return item;
}

const std::string& DisplayConfig::label(const std::string& event) const {
  auto it = names.find(event);
  return it == names.end() ? event : it->second;
}

DisplayConfig DisplayConfig::from_browser(const core::ResultBrowser& browser) {
  return DisplayConfig{browser.display_names(), browser.display_order()};
}

bool QueryFilter::matches(const ApiItem& item) const {
  if (from && item.when.end < *from) return false;
  if (to && item.when.start > *to) return false;
  if (!location.empty() && item.location.find(location) == std::string::npos) {
    return false;
  }
  if (!cause.empty() && item.primary != cause) return false;
  return true;
}

std::vector<const ApiItem*> QueryFilter::apply(
    const std::vector<ApiItem>& items) const {
  std::vector<const ApiItem*> out;
  for (const ApiItem& item : items) {
    if (matches(item)) out.push_back(&item);
  }
  return out;
}

QueryFilter QueryFilter::parse(
    const std::map<std::string, std::string>& query) {
  QueryFilter filter;
  auto bound = [&query](const char* key) -> std::optional<util::TimeSec> {
    auto it = query.find(key);
    if (it == query.end() || it->second.empty()) return std::nullopt;
    return util::to_number<util::TimeSec>(it->second,
                                          std::string(key) + " bound");
  };
  filter.from = bound("from");
  filter.to = bound("to");
  if (auto it = query.find("location"); it != query.end()) {
    filter.location = it->second;
  }
  if (auto it = query.find("cause"); it != query.end()) filter.cause = it->second;
  return filter;
}

std::string render_breakdown(const std::vector<ApiItem>& items,
                             const QueryFilter& filter,
                             const DisplayConfig& display) {
  std::vector<const ApiItem*> selected = filter.apply(items);
  std::map<std::string, std::size_t> by_cause;
  for (const ApiItem* item : selected) ++by_cause[item->primary];
  std::ostringstream out;
  out << "{\n  \"total\": " << selected.size() << ",\n  \"rows\": [";
  bool first = true;
  for (const std::string& cause :
       core::breakdown_order(by_cause, display.order)) {
    std::size_t count = by_cause.at(cause);
    out << (first ? "" : ",") << "\n    {\"cause\": " << quoted(cause)
        << ", \"label\": " << quoted(display.label(cause))
        << ", \"count\": " << count << ", \"percent\": "
        << util::format_double(
               100.0 * static_cast<double>(count) /
                   static_cast<double>(selected.size()),
               2)
        << "}";
    first = false;
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::string render_trending(const std::vector<ApiItem>& items,
                            const QueryFilter& filter,
                            const DisplayConfig& display) {
  std::vector<const ApiItem*> selected = filter.apply(items);
  std::map<core::TrendCell, std::size_t> cells;
  for (const ApiItem* item : selected) {
    ++cells[core::trend_cell(item->when.start, item->primary)];
  }
  std::ostringstream out;
  out << "{\n  \"total\": " << selected.size() << ",\n  \"cells\": [";
  bool first = true;
  for (const auto& [key, count] : cells) {
    out << (first ? "" : ",") << "\n    {\"day\": "
        << quoted(util::format_utc(key.first).substr(0, 10))
        << ", \"day_utc\": " << key.first
        << ", \"cause\": " << quoted(key.second)
        << ", \"label\": " << quoted(display.label(key.second))
        << ", \"count\": " << count << "}";
    first = false;
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::string render_drilldown(const std::vector<ApiItem>& items,
                             const QueryFilter& filter,
                             const DisplayConfig& display,
                             const std::string& cause, std::size_t limit) {
  QueryFilter narrowed = filter;
  narrowed.cause = cause;
  std::vector<const ApiItem*> selected = narrowed.apply(items);
  std::ostringstream out;
  std::size_t rendered = std::min(limit, selected.size());
  out << "{\n  \"cause\": " << quoted(cause)
      << ",\n  \"label\": " << quoted(display.label(cause))
      << ",\n  \"total\": " << selected.size()
      << ",\n  \"rendered\": " << rendered << ",\n  \"matches\": [";
  for (std::size_t i = 0; i < rendered; ++i) {
    const ApiItem& item = *selected[i];
    out << (i ? "," : "") << "\n    {\"symptom\": " << quoted(item.symptom)
        << ", \"start\": " << item.when.start << ", \"end\": " << item.when.end
        << ", \"location\": " << quoted(item.location)
        << ", \"priority\": " << item.priority << ", \"evidence\": [";
    for (std::size_t j = 0; j < item.evidence.size(); ++j) {
      const ApiEvidence& ev = item.evidence[j];
      out << (j ? "," : "") << "\n      {\"event\": " << quoted(ev.event)
          << ", \"priority\": " << ev.priority << ", \"depth\": " << ev.depth
          << ", \"instances\": ";
      render_instances(out, ev.instances);
      out << "}";
    }
    out << (item.evidence.empty() ? "]" : "\n    ]") << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::string render_health(
    const std::vector<obs::FeedHealthMonitor::Status>& feeds,
    util::TimeSec stream_now, std::size_t alarms_active) {
  std::ostringstream out;
  out << "{\n  \"stream_now\": " << stream_now
      << ",\n  \"alarms_active\": " << alarms_active << ",\n  \"feeds\": [";
  bool first = true;
  for (const obs::FeedHealthMonitor::Status& s : feeds) {
    out << (first ? "" : ",") << "\n    {\"source\": "
        << quoted(std::string(telemetry::to_string(s.source)))
        << ", \"records\": " << s.records << ", \"rejected\": " << s.rejected
        << ", \"late_drops\": " << s.late_drops
        << ", \"last_seen\": " << s.last_seen << ", \"gap\": " << s.gap
        << ", \"silent\": " << (s.silent ? "true" : "false")
        << ", \"mean_lag\": " << util::format_double(s.mean_lag, 3) << "}";
    first = false;
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace grca::service
