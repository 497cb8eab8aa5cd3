// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Flat-file persistence for raw telemetry: tab-separated, one record per
// line, mirroring how real feeds are archived and replayed. Used by the
// grca CLI to decouple telemetry generation from analysis runs.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "telemetry/records.h"

namespace grca::telemetry {

/// Writes one record as a single TSV line (no trailing newline handling —
/// the stream writer adds it). Tabs/newlines inside fields are escaped.
std::string to_tsv(const RawRecord& record);

/// Parses a line written by to_tsv. Throws grca::ParseError on malformed
/// input: a wrong field count, an unknown source, a numeric field that is
/// empty or not wholly a number, or an attr without '='. A repeated attr
/// key resolves last-wins.
RawRecord from_tsv(const std::string& line);

/// Writes a stream with a header comment.
void write_stream(std::ostream& out, const RecordStream& stream);

/// Bytes of one read_stream block (more while one line is longer than
/// that).
inline constexpr std::size_t kReadBlockBytes = 64 * 1024;

/// Reads a stream (skips empty lines and comment lines starting with '#').
/// The input is cut at newlines into blocks of kReadBlockBytes, read in
/// file order and parsed by `workers` threads (0 means
/// util::hardware_threads(); a seekable input gets at least one block per
/// worker), each block straight into its records' slots of the result. The
/// input is never held whole: at most one block per worker is in memory.
/// Records come out in file order at any worker count. The last line needs
/// no newline. A malformed line throws grca::ParseError naming its 1-based
/// line number and the reason; with several, the first in file order.
RecordStream read_stream(std::istream& in, unsigned workers = 0);

std::string_view source_name(SourceType type) noexcept;
SourceType parse_source(std::string_view name);

}  // namespace grca::telemetry
