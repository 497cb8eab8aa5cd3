// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "obs/export.h"

#include <cstdio>
#include <sstream>

namespace grca::obs {

namespace {

/// %g-style but always parseable; Prometheus accepts scientific notation.
std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string format_bound(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// "name{a=\"b\"}" + extra label -> "name{a=\"b\",le=\"5\"}".
std::string with_label(const std::string& base, const std::string& labels,
                       const std::string& suffix, const std::string& extra) {
  std::string out = base + suffix;
  if (labels.empty() && extra.empty()) return out;
  out += '{';
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ',';
  out += extra;
  out += '}';
  return out;
}

/// Help text for the metric families the platform emits; families not
/// listed fall back to a generic line so every family still carries HELP.
const char* family_help(const std::string& family) {
  static const std::map<std::string, const char*> kHelp = {
      {"grca_events_total", "Event instances added to the event store"},
      {"grca_diagnoses_total", "Symptom instances diagnosed"},
      {"grca_rule_evals_total", "Diagnosis-graph rule evaluations"},
      {"grca_evidence_matches_total", "Rules that produced joined evidence"},
      {"grca_diagnosis_seconds", "Wall time per symptom diagnosis"},
      {"grca_feed_records_total", "Raw records accepted per telemetry feed"},
      {"grca_feed_rejected_total", "Records rejected by the collector"},
      {"grca_feed_late_drops_total",
       "Records dropped behind the freeze horizon"},
      {"grca_feed_last_seen_utc_seconds",
       "Event time of the newest record per feed"},
      {"grca_feed_gap_seconds", "Stream-clock silence per feed"},
      {"grca_feed_silent", "1 when a feed is silent beyond its cadence"},
      {"grca_feed_lag_seconds", "Arrival lag (arrival - event time)"},
      {"grca_freeze_lag_seconds", "Stream high-water minus freeze cut"},
      {"grca_streaming_batch_seconds", "Wall time per diagnosis batch"},
      {"grca_streaming_batch_size", "Symptoms per diagnosis batch"},
      {"grca_http_connections_total", "HTTP connections accepted"},
      {"grca_http_requests_total", "HTTP requests served"},
      {"grca_http_active_connections", "Currently open HTTP connections"},
      {"grca_service_scrapes_total", "GET /metrics scrapes served"},
      {"grca_service_api_requests_total", "GET /api/* requests served"},
      {"grca_alerts_raised_total", "Feed-health alarms raised"},
      {"grca_alert_events_injected_total",
       "Missing-data events synthesized by the alert engine"},
      {"grca_alerts_active", "Feed-health alarms currently active"},
  };
  auto it = kHelp.find(family);
  return it == kHelp.end() ? "G-RCA metric" : it->second;
}

void family_header(std::ostringstream& out, std::string& last_family,
                   const std::string& family, const char* type) {
  if (family == last_family) return;
  last_family = family;
  out << "# HELP " << family << ' ' << family_help(family) << '\n';
  out << "# TYPE " << family << ' ' << type << '\n';
}

}  // namespace

std::pair<std::string, std::string> split_labels(const std::string& name) {
  std::size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') return {name, ""};
  return {name.substr(0, brace),
          name.substr(brace + 1, name.size() - brace - 2)};
}

std::string prometheus_escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size() + 4);
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prometheus_label(const std::string& base, const std::string& key,
                             const std::string& value) {
  return base + '{' + key + "=\"" + prometheus_escape_label_value(value) +
         "\"}";
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string render_prometheus(const MetricsRegistry& registry) {
  MetricsRegistry::Snapshot snap = registry.snapshot();
  std::ostringstream out;
  std::string last_family;
  for (const auto& [name, value] : snap.counters) {
    auto [base, labels] = split_labels(name);
    family_header(out, last_family, base, "counter");
    out << with_label(base, labels, "", "") << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snap.gauges) {
    auto [base, labels] = split_labels(name);
    family_header(out, last_family, base, "gauge");
    out << with_label(base, labels, "", "") << ' ' << format_value(value)
        << '\n';
  }
  for (const auto& [name, hist] : snap.histograms) {
    auto [base, labels] = split_labels(name);
    family_header(out, last_family, base, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < hist.bounds.size(); ++i) {
      cumulative += hist.data.buckets[i];
      out << with_label(base, labels, "_bucket",
                        "le=\"" + format_bound(hist.bounds[i]) + "\"")
          << ' ' << cumulative << '\n';
    }
    out << with_label(base, labels, "_bucket", "le=\"+Inf\"") << ' '
        << hist.data.count << '\n';
    out << with_label(base, labels, "_sum", "") << ' '
        << format_value(hist.data.sum) << '\n';
    out << with_label(base, labels, "_count", "") << ' ' << hist.data.count
        << '\n';
  }
  return out.str();
}

std::string render_json(const MetricsRegistry& registry) {
  MetricsRegistry::Snapshot snap = registry.snapshot();
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name)
        << "\": " << value;
    first = false;
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name)
        << "\": " << format_value(value);
    first = false;
  }
  out << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : snap.histograms) {
    out << (first ? "" : ",") << "\n    \"" << json_escape(name) << "\": {";
    out << "\n      \"bounds\": [";
    for (std::size_t i = 0; i < hist.bounds.size(); ++i) {
      out << (i ? ", " : "") << format_value(hist.bounds[i]);
    }
    out << "],\n      \"buckets\": [";
    for (std::size_t i = 0; i < hist.data.buckets.size(); ++i) {
      out << (i ? ", " : "") << hist.data.buckets[i];
    }
    out << "],\n      \"count\": " << hist.data.count
        << ",\n      \"sum\": " << format_value(hist.data.sum)
        << "\n    }";
    first = false;
  }
  out << "\n  }\n}\n";
  return out.str();
}

}  // namespace grca::obs
