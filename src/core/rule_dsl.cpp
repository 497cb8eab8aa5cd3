// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "core/rule_dsl.h"

#include <sstream>

#include "util/strings.h"

namespace grca::core {
namespace {

/// A line-oriented tokenizer that strips comments and blank lines.
class Lines {
 public:
  Lines(std::string_view text, std::string_view source)
      : lines_(util::split(text, '\n')), source_(source) {}

  /// Next non-empty, comment-stripped line; empty optional at end.
  bool next(std::string& out) {
    while (pos_ < lines_.size()) {
      std::string line = lines_[pos_++];
      std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::string_view trimmed = util::trim(line);
      if (!trimmed.empty()) {
        out.assign(trimmed);
        return true;
      }
    }
    return false;
  }

  std::size_t line_number() const noexcept { return pos_; }
  std::string_view source() const noexcept { return source_; }

 private:
  std::vector<std::string> lines_;
  std::string_view source_;
  std::size_t pos_ = 0;
};

[[noreturn]] void fail(const Lines& lines, const std::string& message) {
  throw ParseError(std::string(lines.source()) + " (line " +
                   std::to_string(lines.line_number()) + "): " + message);
}

/// `text` read wholly as a number, or a ParseError naming the line.
template <typename T>
T number(const Lines& lines, const std::string& text, const char* what) {
  try {
    return util::to_number<T>(text, what);
  } catch (const ParseError& e) {
    fail(lines, e.what());
  }
}

/// Extracts the quoted string from a 'desc "..."' line.
std::string parse_quoted(const Lines& lines, const std::string& line) {
  std::size_t open = line.find('"');
  std::size_t close = line.rfind('"');
  if (open == std::string::npos || close == open) {
    fail(lines, "expected quoted string in '" + line + "'");
  }
  return line.substr(open + 1, close - open - 1);
}

TemporalSide parse_side(const Lines& lines,
                        const std::vector<std::string>& tok) {
  if (tok.size() != 4) fail(lines, "expected '<kw> <option> <X> <Y>'");
  TemporalSide side;
  side.option = parse_expand_option(tok[1]);
  side.left = number<util::TimeSec>(lines, tok[2], "margin");
  side.right = number<util::TimeSec>(lines, tok[3], "margin");
  return side;
}

void parse_event_block(Lines& lines, const std::string& name,
                       DiagnosisGraph& graph) {
  EventDefinition def;
  def.name = name;
  std::string line;
  while (lines.next(line)) {
    if (line == "}") {
      graph.define_event(std::move(def));
      return;
    }
    auto tok = util::split_ws(line);
    if (tok[0] == "location" && tok.size() == 2) {
      def.location_type = parse_location_type(tok[1]);
    } else if (tok[0] == "source" && tok.size() == 2) {
      def.data_source = tok[1];
    } else if (tok[0] == "retrieval" && tok.size() == 2) {
      def.retrieval = tok[1];
    } else if (tok[0] == "desc") {
      def.description = parse_quoted(lines, line);
    } else {
      fail(lines, "unknown event attribute '" + tok[0] + "'");
    }
  }
  fail(lines, "unterminated event block for '" + name + "'");
}

void parse_rule_block(Lines& lines, const std::string& symptom,
                      const std::string& diagnostic, DiagnosisGraph& graph) {
  DiagnosisRule rule;
  rule.symptom = symptom;
  rule.diagnostic = diagnostic;
  rule.temporal = TemporalRule::default_rule();
  std::string line;
  while (lines.next(line)) {
    if (line == "}") {
      graph.add_rule(std::move(rule));
      return;
    }
    auto tok = util::split_ws(line);
    if (tok[0] == "priority" && tok.size() == 2) {
      rule.priority = number<int>(lines, tok[1], "priority");
    } else if (tok[0] == "symptom") {
      rule.temporal.symptom = parse_side(lines, tok);
    } else if (tok[0] == "diagnostic") {
      rule.temporal.diagnostic = parse_side(lines, tok);
    } else if (tok[0] == "join" && tok.size() == 2) {
      rule.join_level = parse_location_type(tok[1]);
    } else if (tok[0] == "origin") {
      rule.origin = parse_quoted(lines, line);
    } else {
      fail(lines, "unknown rule attribute '" + tok[0] + "'");
    }
  }
  fail(lines, "unterminated rule block");
}

void parse_graph_block(Lines& lines, DiagnosisGraph& graph) {
  std::string line;
  while (lines.next(line)) {
    if (line == "}") return;
    auto tok = util::split_ws(line);
    if (tok[0] == "root" && tok.size() == 2) {
      graph.set_root(tok[1]);
    } else {
      fail(lines, "unknown graph attribute '" + tok[0] + "'");
    }
  }
  fail(lines, "unterminated graph block");
}

}  // namespace

void load_dsl(std::string_view text, DiagnosisGraph& graph,
              std::string_view source) {
  Lines lines(text, source);
  std::string line;
  while (lines.next(line)) {
    auto tok = util::split_ws(line);
    if (tok[0] == "event") {
      if (tok.size() != 3 || tok[2] != "{") {
        fail(lines, "expected 'event <name> {'");
      }
      parse_event_block(lines, tok[1], graph);
    } else if (tok[0] == "rule") {
      // "rule <symptom> -> <diagnostic> {"
      if (tok.size() != 5 || tok[2] != "->" || tok[4] != "{") {
        fail(lines, "expected 'rule <symptom> -> <diagnostic> {'");
      }
      parse_rule_block(lines, tok[1], tok[3], graph);
    } else if (tok[0] == "graph") {
      if (tok.size() != 2 || tok[1] != "{") fail(lines, "expected 'graph {'");
      parse_graph_block(lines, graph);
    } else {
      fail(lines, "unknown block '" + tok[0] + "'");
    }
  }
}

std::string render_dsl(const DiagnosisGraph& graph) {
  std::ostringstream out;
  for (const EventDefinition* def : graph.events()) {
    out << "event " << def->name << " {\n";
    out << "  location " << to_string(def->location_type) << "\n";
    if (!def->data_source.empty()) out << "  source " << def->data_source << "\n";
    if (!def->retrieval.empty()) out << "  retrieval " << def->retrieval << "\n";
    if (!def->description.empty()) {
      out << "  desc \"" << def->description << "\"\n";
    }
    out << "}\n";
  }
  for (const DiagnosisRule& rule : graph.rules()) {
    out << render_rule_dsl(rule);
  }
  if (!graph.root().empty()) {
    out << "graph {\n  root " << graph.root() << "\n}\n";
  }
  return out.str();
}

std::string render_rule_dsl(const DiagnosisRule& rule) {
  std::ostringstream out;
  out << "rule " << rule.symptom << " -> " << rule.diagnostic << " {\n";
  out << "  priority " << rule.priority << "\n";
  out << "  symptom " << to_string(rule.temporal.symptom.option) << " "
      << rule.temporal.symptom.left << " " << rule.temporal.symptom.right
      << "\n";
  out << "  diagnostic " << to_string(rule.temporal.diagnostic.option) << " "
      << rule.temporal.diagnostic.left << " "
      << rule.temporal.diagnostic.right << "\n";
  out << "  join " << to_string(rule.join_level) << "\n";
  if (!rule.origin.empty()) {
    out << "  origin \"" << rule.origin << "\"\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace grca::core
