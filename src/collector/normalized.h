// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Normalized records: the output of the Data Collector's ingest stage.
// Naming conventions are unified (canonical lowercase router names, layer-1
// device names resolved against the inventory) and every timestamp is UTC —
// "the normalization across naming conventions, time zones, and identifiers
// takes place as data is ingested into the Data Collector" (paper §II-A).
#pragma once

#include <string>

#include "telemetry/records.h"

namespace grca::collector {

/// Names are interned, as in RawRecord.
struct NormalizedRecord {
  telemetry::SourceType source = telemetry::SourceType::kSyslog;
  util::Symbol router;  // canonical router name ("" when not router-scoped)
  util::TimeSec utc = 0;
  util::Symbol device;     // layer-1 device / raw device name
  util::Symbol interface;  // interface name when interface-scoped
  util::Symbol field;
  std::string body;
  double value = 0.0;
  telemetry::Attrs attrs;
};

/// One-line rendering for drill-down output.
std::string render(const NormalizedRecord& record);

}  // namespace grca::collector
