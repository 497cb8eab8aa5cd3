// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "core/result_browser.h"

#include <algorithm>
#include <set>

#include "util/strings.h"

namespace grca::core {

std::vector<std::string> breakdown_order(
    const std::map<std::string, std::size_t>& counts,
    const std::vector<std::string>& display_order) {
  std::vector<std::string> order;
  for (const std::string& e : display_order) {
    if (counts.count(e)) order.push_back(e);
  }
  std::vector<std::pair<std::string, std::size_t>> rest(counts.begin(),
                                                        counts.end());
  std::sort(rest.begin(), rest.end(), [](const auto& a, const auto& b) {
    return a.second > b.second || (a.second == b.second && a.first < b.first);
  });
  for (const auto& [event, count] : rest) {
    if (std::find(order.begin(), order.end(), event) == order.end()) {
      order.push_back(event);
    }
  }
  return order;
}

TrendCell trend_cell(util::TimeSec symptom_start, std::string cause) {
  return {symptom_start / util::kDay * util::kDay, std::move(cause)};
}

void ResultBrowser::set_display_name(std::string event, std::string name) {
  display_names_[std::move(event)] = std::move(name);
}

void ResultBrowser::set_display_order(std::vector<std::string> events) {
  display_order_ = std::move(events);
}

std::string ResultBrowser::label(const std::string& event) const {
  auto it = display_names_.find(event);
  return it == display_names_.end() ? event : it->second;
}

std::map<std::string, std::size_t> ResultBrowser::counts() const {
  std::map<std::string, std::size_t> out;
  for (const Diagnosis& d : diagnoses_) ++out[d.primary()];
  return out;
}

std::map<std::string, double> ResultBrowser::percentages() const {
  std::map<std::string, double> out;
  if (diagnoses_.empty()) return out;
  for (const auto& [event, count] : counts()) {
    out[event] = 100.0 * static_cast<double>(count) / diagnoses_.size();
  }
  return out;
}

util::TextTable ResultBrowser::breakdown() const {
  auto by_cause = counts();
  util::TextTable table({"Root Cause", "Count", "Percentage (%)"});
  for (const std::string& event : breakdown_order(by_cause, display_order_)) {
    std::size_t count = by_cause.at(event);
    table.add_row({label(event), std::to_string(count),
                   util::format_double(
                       100.0 * static_cast<double>(count) / diagnoses_.size(),
                       2)});
  }
  return table;
}

util::TextTable ResultBrowser::trend() const {
  util::TextTable table({"Day", "Root Cause", "Count"});
  std::map<TrendCell, std::size_t> cells;
  for (const Diagnosis& d : diagnoses_) {
    ++cells[trend_cell(d.symptom.when.start, d.primary())];
  }
  for (const auto& [key, count] : cells) {
    table.add_row({util::format_utc(key.first).substr(0, 10), label(key.second),
                   std::to_string(count)});
  }
  return table;
}

std::vector<const Diagnosis*> ResultBrowser::with_cause(
    const std::string& event) const {
  std::vector<const Diagnosis*> out;
  for (const Diagnosis& d : diagnoses_) {
    if (d.primary() == event) out.push_back(&d);
  }
  return out;
}

std::string ResultBrowser::drill_down(const Diagnosis& diagnosis,
                                      const ContextLookup& lookup) const {
  std::string out;
  out += "symptom " + diagnosis.symptom.name + " @ " +
         util::format_utc(diagnosis.symptom.when.start) + " .. " +
         util::format_utc(diagnosis.symptom.when.end) + " at " +
         diagnosis.symptom.where.key() + "\n";
  out += "diagnosed cause: " + label(diagnosis.primary()) + "\n";
  out += "evidence chain:\n";
  for (const EvidenceNode& node : diagnosis.evidence) {
    if (node.depth == 0) continue;
    out += "  [depth " + std::to_string(node.depth) + ", prio " +
           std::to_string(node.priority) + "] " + node.event + " x" +
           std::to_string(node.instances.size()) + "\n";
    for (const EventInstance* inst : node.instances) {
      out += "      " + util::format_utc(inst->when.start) + " at " +
             inst->where.key() + "\n";
    }
  }
  if (lookup) {
    out += "raw context (+-120 s):\n";
    for (const std::string& line :
         lookup(diagnosis.symptom.where, diagnosis.symptom.when.start - 120,
                diagnosis.symptom.when.end + 120)) {
      out += "    " + line + "\n";
    }
  }
  return out;
}

std::string ResultBrowser::to_csv() const {
  std::string out =
      "symptom,start,end,location,root_cause,priority,evidence\n";
  auto quote = [](const std::string& field) {
    std::string q = "\"";
    for (char c : field) {
      if (c == '"') q += '"';
      q += c;
    }
    q += '"';
    return q;
  };
  for (const Diagnosis& d : diagnoses_) {
    std::vector<std::string> evidence;
    for (const EvidenceNode& node : d.evidence) {
      if (node.depth > 0) evidence.push_back(node.event);
    }
    out += quote(d.symptom.name) + "," +
           util::format_utc(d.symptom.when.start) + "," +
           util::format_utc(d.symptom.when.end) + "," +
           quote(d.symptom.where.key()) + "," + quote(d.primary()) + "," +
           std::to_string(d.causes.empty() ? 0 : d.causes.front().priority) +
           "," + quote(util::join(evidence, ";")) + "\n";
  }
  return out;
}

double ResultBrowser::mean_diagnosis_ms() const {
  if (diagnoses_.empty()) return 0.0;
  double total = 0.0;
  for (const Diagnosis& d : diagnoses_) total += d.elapsed_ms;
  return total / static_cast<double>(diagnoses_.size());
}

}  // namespace grca::core
