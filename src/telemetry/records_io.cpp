// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "telemetry/records_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/error.h"
#include "util/strings.h"

namespace grca::telemetry {

namespace {

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\\': out += "\\\\"; break;
      default: out += c;
    }
  }
  return out;
}

/// `text` with the escapes written by escape() undone.
std::string unescaped(std::string_view text) {
  // Built at its exact size: assigning into a short string would round a
  // 16-29 byte text up to 30 bytes of capacity.
  if (text.find('\\') == std::string_view::npos) return std::string(text);
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 == text.size()) {
      out += text[i];
      continue;
    }
    switch (text[++i]) {
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case '\\': out += '\\'; break;
      default: out += text[i];
    }
  }
  return out;
}

/// The symbol of an escaped field.
util::Symbol intern(std::string_view escaped) {
  if (escaped.find('\\') == std::string_view::npos) {
    return util::Symbol(escaped);
  }
  return util::Symbol(unescaped(escaped));
}

/// Parses one record line (without its newline) into `r`, which must be
/// default-constructed.
void parse_line(std::string_view line, RawRecord& r) {
  std::string_view fields[8];
  std::size_t begin = 0;
  for (int i = 0; i < 7; ++i) {
    std::size_t tab = line.find('\t', begin);
    if (tab == std::string_view::npos) {
      throw ParseError("telemetry TSV: expected 8 fields, got " +
                       std::to_string(i + 1));
    }
    fields[i] = line.substr(begin, tab - begin);
    begin = tab + 1;
  }
  fields[7] = line.substr(begin);
  if (auto extra = std::count(fields[7].begin(), fields[7].end(), '\t')) {
    throw ParseError("telemetry TSV: expected 8 fields, got " +
                     std::to_string(8 + extra));
  }
  r.source = parse_source(fields[0]);
  r.timestamp = util::to_number<util::TimeSec>(fields[1], "timestamp");
  r.device = intern(fields[2]);
  r.field = intern(fields[3]);
  r.body = unescaped(fields[4]);
  r.value = util::to_number<double>(fields[5], "value");
  r.true_utc = util::to_number<util::TimeSec>(fields[6], "true_utc");
  if (fields[7].empty()) return;
  r.attrs.reserve(
      1 + static_cast<std::size_t>(
              std::count(fields[7].begin(), fields[7].end(), ';')));
  // to_tsv writes attrs in key order, so each one goes in at the end; a
  // repeated key still resolves last-wins.
  for (std::string_view rest = fields[7];;) {
    std::size_t semi = rest.find(';');
    std::string_view pair = rest.substr(0, semi);
    std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      throw ParseError("telemetry TSV: bad attr '" + std::string(pair) + "'");
    }
    r.attrs[intern(pair.substr(0, eq))] = intern(pair.substr(eq + 1));
    if (semi == std::string_view::npos) return;
    rest.remove_prefix(semi + 1);
  }
}

/// Bytes from the read position of `in` to its end; 0 when it cannot seek.
std::size_t bytes_left(std::istream& in) {
  const std::streampos at = in.tellg();
  if (at == std::streampos(-1)) return 0;
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.clear();
  in.seekg(at);
  if (!in || end == std::streampos(-1) || end < at) {
    in.clear();
    return 0;
  }
  return static_cast<std::size_t>(end - at);
}

}  // namespace

std::string_view source_name(SourceType type) noexcept {
  return to_string(type);
}

SourceType parse_source(std::string_view name) {
  for (int i = 0; i <= static_cast<int>(SourceType::kWorkflowLog); ++i) {
    auto type = static_cast<SourceType>(i);
    if (to_string(type) == name) return type;
  }
  throw ParseError("unknown telemetry source '" + std::string(name) + "'");
}

std::string to_tsv(const RawRecord& r) {
  std::ostringstream out;
  out << to_string(r.source) << '\t' << r.timestamp << '\t'
      << escape(r.device.view()) << '\t' << escape(r.field.view()) << '\t'
      << escape(r.body) << '\t' << r.value << '\t' << r.true_utc << '\t';
  bool first = true;
  for (const auto& [k, v] : r.attrs) {
    if (!first) out << ';';
    first = false;
    out << escape(k.view()) << '=' << escape(v.view());
  }
  return out.str();
}

RawRecord from_tsv(const std::string& line) {
  RawRecord r;
  parse_line(line, r);
  return r;
}

void write_stream(std::ostream& out, const RecordStream& stream) {
  out << "# grca telemetry v1: source\ttimestamp\tdevice\tfield\tbody\tvalue"
         "\ttrue_utc\tattrs\n";
  for (const RawRecord& r : stream) out << to_tsv(r) << '\n';
}

RecordStream read_stream(std::istream& in) {
  RecordStream stream;
  std::size_t line_no = 0;
  auto consume = [&](std::string_view line) {
    ++line_no;
    if (line.empty() || line[0] == '#') return;
    RawRecord& r = stream.emplace_back();
    try {
      parse_line(line, r);
    } catch (const ParseError& e) {
      throw ParseError("line " + std::to_string(line_no) + ": " + e.what());
    }
  };
  // Fixed-size blocks; a line cut by the block end moves to the front of
  // the buffer and is completed by the next read. A line longer than the
  // buffer grows it.
  std::vector<char> buf(kReadBlockBytes);
  std::size_t have = 0;
  // Growing the stream moves every record it holds, so after the first
  // block it is reserved for the whole input at that block's density, with
  // headroom (capacity never written to stays out of RSS).
  const std::size_t input_bytes = bytes_left(in);
  bool reserved = false;
  while (true) {
    if (have == buf.size()) buf.resize(buf.size() * 2);
    in.read(buf.data() + have,
            static_cast<std::streamsize>(buf.size() - have));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    std::string_view text(buf.data(), have + got);
    std::size_t begin = 0;
    for (std::size_t nl; (nl = text.find('\n', begin)) != text.npos;
         begin = nl + 1) {
      consume(text.substr(begin, nl - begin));
    }
    have = text.size() - begin;
    std::memmove(buf.data(), buf.data() + begin, have);
    if (!reserved && begin > 0) {
      reserved = true;
      const double per_byte =
          static_cast<double>(stream.size()) / static_cast<double>(begin);
      stream.reserve(
          static_cast<std::size_t>(1.1 * per_byte *
                                   static_cast<double>(input_bytes)) +
          16);
    }
  }
  if (have > 0) consume(std::string_view(buf.data(), have));
  return stream;
}

}  // namespace grca::telemetry
