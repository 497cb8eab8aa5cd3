// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "service/alerts.h"

#include <algorithm>

#include "obs/export.h"
#include "util/error.h"
#include "util/strings.h"

namespace grca::service {

namespace {

ParseError rule_error(std::size_t line_no, const std::string& what) {
  return ParseError("alert rules line " + std::to_string(line_no) + ": " +
                    what);
}

/// `text` read wholly as a T, or a ParseError naming the line.
template <typename T>
T rule_number(std::size_t line_no, const std::string& text, const char* what) {
  try {
    return util::to_number<T>(text, what);
  } catch (const ParseError& e) {
    throw rule_error(line_no, e.what());
  }
}

}  // namespace

std::vector<AlertRule> default_alert_rules() {
  std::vector<AlertRule> rules;
  {
    AlertRule r;
    r.name = "feed-silent";
    r.metric = "grca_feed_silent";
    r.op = AlertRule::Op::kGreater;
    r.threshold = 0.5;  // the silent gauge is 0/1
    rules.push_back(std::move(r));
  }
  {
    AlertRule r;
    r.name = "feed-gap";
    r.metric = "grca_feed_gap_seconds";
    r.op = AlertRule::Op::kGreater;
    r.threshold = 3600.0;
    rules.push_back(std::move(r));
  }
  {
    // Histogram rule: fires on the mean arrival lag (sum/count).
    AlertRule r;
    r.name = "feed-lag";
    r.metric = "grca_feed_lag_seconds";
    r.op = AlertRule::Op::kGreater;
    r.threshold = 600.0;
    rules.push_back(std::move(r));
  }
  return rules;
}

std::vector<AlertRule> parse_alert_rules(const std::string& text) {
  std::vector<AlertRule> rules;
  std::size_t line_no = 0;
  for (const std::string& raw : util::split(text, '\n')) {
    ++line_no;
    std::string line(util::trim(raw));
    if (std::size_t hash = line.find('#'); hash != std::string::npos) {
      line = std::string(util::trim(line.substr(0, hash)));
    }
    if (line.empty()) continue;
    std::vector<std::string> tok = util::split_ws(line);
    auto fail = [line_no](const std::string& what) {
      return rule_error(line_no, what);
    };
    if (tok.size() < 4) {
      throw fail("expected NAME METRIC >|< THRESHOLD [backdate SEC] "
                 "[hold SEC] [event NAME]");
    }
    AlertRule rule;
    rule.name = tok[0];
    rule.metric = tok[1];
    if (tok[2] == ">") {
      rule.op = AlertRule::Op::kGreater;
    } else if (tok[2] == "<") {
      rule.op = AlertRule::Op::kLess;
    } else {
      throw fail("operator must be > or <, got '" + tok[2] + "'");
    }
    rule.threshold = rule_number<double>(line_no, tok[3], "threshold");
    for (std::size_t i = 4; i + 1 < tok.size(); i += 2) {
      if (tok[i] == "backdate") {
        rule.backdate =
            rule_number<util::TimeSec>(line_no, tok[i + 1], "backdate");
      } else if (tok[i] == "hold") {
        rule.hold = rule_number<util::TimeSec>(line_no, tok[i + 1], "hold");
      } else if (tok[i] == "event") {
        rule.event = tok[i + 1];
      } else {
        throw fail("unknown option '" + tok[i] + "'");
      }
    }
    if ((tok.size() - 4) % 2 != 0) {
      throw fail("dangling option '" + tok.back() + "'");
    }
    rules.push_back(std::move(rule));
  }
  return rules;
}

void add_missing_data_support(core::DiagnosisGraph& graph,
                              const std::string& event) {
  core::EventDefinition def;
  def.name = event;
  def.location_type = core::LocationType::kPop;
  def.retrieval = "alert-engine";
  def.description =
      "feed-health alarm: expected telemetry is missing or lagging";
  def.data_source = "internal";
  graph.define_event(std::move(def));

  core::DiagnosisRule rule;
  rule.symptom = graph.root();
  rule.diagnostic = event;
  // Generous temporal slack: the alarm marks an outage *window*, not a
  // precise event, and must join any symptom inside it.
  rule.temporal = core::TemporalRule{{core::ExpandOption::kStartEnd, 600, 600},
                                     {core::ExpandOption::kStartEnd, 0, 0}};
  rule.join_level = core::LocationType::kPop;
  // Far below every knowledge-library priority (>= 100): real causes always
  // win; the alarm only explains otherwise-unknown symptoms.
  rule.priority = 1;
  graph.add_rule(std::move(rule));
}

AlertEngine::AlertEngine(std::vector<AlertRule> rules,
                         std::vector<core::Location> scope,
                         obs::MetricsRegistry* registry)
    : rules_(std::move(rules)), scope_(std::move(scope)), registry_(registry) {
  if (registry_) {
    alarms_raised_ = &registry_->counter("grca_alerts_raised_total");
    events_injected_ = &registry_->counter("grca_alert_events_injected_total");
    alarms_active_ = &registry_->gauge("grca_alerts_active");
  }
}

std::size_t AlertEngine::active_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(alarms_.begin(), alarms_.end(),
                    [](const Alarm& a) { return a.active; }));
}

std::vector<core::EventInstance> AlertEngine::synthesize(
    const AlertRule& rule, const std::string& metric, double value,
    util::TimeSec from, util::TimeSec to) {
  std::vector<core::EventInstance> out;
  out.reserve(scope_.size());
  for (const core::Location& loc : scope_) {
    core::EventInstance inst;
    inst.name = rule.event;
    inst.when = {from, to};
    inst.where = loc;
    inst.attrs["rule"] = rule.name;
    inst.attrs["alert_metric"] = metric;
    inst.attrs["value"] = util::format_double(value, 3);
    out.push_back(std::move(inst));
  }
  synthesized_ += out.size();
  if (events_injected_) events_injected_->inc(out.size());
  return out;
}

std::vector<core::EventInstance> AlertEngine::evaluate(util::TimeSec now) {
  std::vector<core::EventInstance> injected;
  if (!registry_) return injected;
  obs::MetricsRegistry::Snapshot snap = registry_->snapshot();
  // Evaluated series: every gauge by value, every histogram by its mean
  // (the arrival-lag distribution is a histogram; its mean is the signal).
  std::map<std::string, double> series(snap.gauges);
  for (const auto& [name, hist] : snap.histograms) {
    series[name] = hist.data.count == 0
                       ? 0.0
                       : hist.data.sum / static_cast<double>(hist.data.count);
  }
  for (const AlertRule& rule : rules_) {
    for (const auto& [name, value] : series) {
      auto [base, labels] = obs::split_labels(name);
      if (base != rule.metric) continue;
      bool fired = rule.op == AlertRule::Op::kGreater ? value > rule.threshold
                                                      : value < rule.threshold;
      State& state = states_[rule.name + '\0' + name];
      if (fired && !state.active) {
        // Rising edge: raise a new alarm and cover the window that is
        // already at risk (backdate) plus a hold period ahead.
        state.active = true;
        state.alarm_index = alarms_.size();
        state.covered_until = now + rule.hold;
        alarms_.push_back(Alarm{rule.name, name, value, now, 0, true});
        if (alarms_raised_) alarms_raised_->inc();
        auto events =
            synthesize(rule, name, value, now - rule.backdate, now + rule.hold);
        injected.insert(injected.end(),
                        std::make_move_iterator(events.begin()),
                        std::make_move_iterator(events.end()));
      } else if (fired && state.active) {
        alarms_[state.alarm_index].value = value;
        // Extend coverage before it runs out, so a long outage stays
        // covered without one instance per tick.
        if (now + rule.hold / 2 > state.covered_until) {
          auto events = synthesize(rule, name, value, state.covered_until,
                                   now + rule.hold);
          state.covered_until = now + rule.hold;
          injected.insert(injected.end(),
                          std::make_move_iterator(events.begin()),
                          std::make_move_iterator(events.end()));
        }
      } else if (!fired && state.active) {
        state.active = false;
        Alarm& alarm = alarms_[state.alarm_index];
        alarm.active = false;
        alarm.until = now;
        alarm.value = value;
      }
    }
  }
  if (alarms_active_) {
    alarms_active_->set(static_cast<double>(active_count()));
  }
  return injected;
}

}  // namespace grca::service
