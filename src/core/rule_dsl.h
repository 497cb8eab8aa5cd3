// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The rule specification language (paper §I: "a simple yet flexible rule
// specification language that allows operators to quickly customize G-RCA
// into different RCA tools").
//
// A configuration is plain text made of three block kinds:
//
//   event <name> {
//     location <location-type>     # one of core::LocationType names
//     source <data-source>         # informational (Table I column)
//     retrieval <process-id>       # collector retrieval process
//     desc "<free text>"
//   }
//
//   rule <symptom-event> -> <diagnostic-event> {
//     priority <int>
//     symptom <start-end|start-start|end-end> <X> <Y>
//     diagnostic <start-end|start-start|end-end> <X> <Y>
//     join <location-type>         # the spatial joining level
//     origin "<free text>"         # provenance (set on learned rules)
//   }
//
//   graph { root <symptom-event> }
//
// '#' starts a comment. Blocks compose: loading several texts into the same
// DiagnosisGraph merges them, which is exactly how applications extend the
// Knowledge Library (re-defining an event replaces the library version, as
// §II-A allows).
#pragma once

#include <string>
#include <string_view>

#include "core/diagnosis_graph.h"

namespace grca::core {

/// Parses `text` and merges its definitions into `graph`. Throws
/// grca::ParseError on syntax errors, including a number that does not
/// parse in full, as "<source> (line N): ..." with N 1-based; and
/// grca::ConfigError on semantic ones (e.g. a rule whose events are not
/// defined). `source` names the text in errors (a file path, say).
void load_dsl(std::string_view text, DiagnosisGraph& graph,
              std::string_view source = "rule DSL");

/// Serializes a graph back to DSL text (stable round trip modulo comments).
std::string render_dsl(const DiagnosisGraph& graph);

/// Renders one rule block in the same shape render_dsl emits — the unit
/// `grca learn` writes to reviewable DSL files (loadable back on top of any
/// graph that defines both endpoint events).
std::string render_rule_dsl(const DiagnosisRule& rule);

}  // namespace grca::core
