// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "telemetry/records_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <shared_mutex>
#include <sstream>
#include <vector>

#include "util/error.h"
#include "util/fork_join.h"
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

/// Calls f(line) for every line of `text`, without its newline; a last
/// line with no newline counts, an empty remainder after the last newline
/// does not.
template <typename F>
void for_each_line(std::string_view text, F&& f) {
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    f(text.substr(0, nl));
    if (nl == std::string_view::npos) return;
    text.remove_prefix(nl + 1);
  }
}

bool is_record(std::string_view line) {
  return !line.empty() && line[0] != '#';
}

/// A seekable input from its read position on: its bytes, and its records
/// guessed from its first block's density, plus 10%.
struct Extent {
  std::size_t bytes = 0;
  std::size_t records = 0;
};

/// The extent of `in`, whose read position is left where it was; nullopt
/// when it cannot seek.
std::optional<Extent> extent(std::istream& in) {
  const std::streampos at = in.tellg();
  if (at == std::streampos(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.clear();
  in.seekg(at);
  if (!in || end == std::streampos(-1) || end < at) {
    in.clear();
    return std::nullopt;
  }
  Extent e;
  e.bytes = static_cast<std::size_t>(end - at);
  std::vector<char> head(std::min(e.bytes, kReadBlockBytes));
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  in.clear();
  in.seekg(at);
  std::string_view text(head.data(), static_cast<std::size_t>(in.gcount()));
  if (text.size() < e.bytes) text = text.substr(0, text.rfind('\n') + 1);
  std::size_t records = 0;
  for_each_line(text,
                [&](std::string_view line) { records += is_record(line); });
  if (!text.empty()) {
    const double per_byte =
        static_cast<double>(records) / static_cast<double>(text.size());
    e.records = static_cast<std::size_t>(
                    1.1 * per_byte * static_cast<double>(e.bytes)) +
                16;
  }
  return e;
}

/// A bad line: its 1-based number and the reason.
struct BadLine {
  std::size_t line = 0;
  std::string what;
};

/// One worker's block: whole lines of the input, and where they go.
struct Block {
  std::vector<char> buf;  // the worker's buffer; [0, size) is the block
  std::size_t size = 0;
  std::size_t first_line = 0;  // lines of the input before this block
  RawRecord* out = nullptr;    // its records' slots in the stream
};

/// Hands the input out in blocks, in file order, to the workers of one
/// read_stream call, and sizes the one record vector they parse into.
class BlockReader {
 public:
  BlockReader(std::istream& in, RecordStream& stream)
      : in_(in), stream_(stream) {}

  /// Fills `b` with the next block and sizes the stream for its records;
  /// false once the input is spent or a line has failed. `parsing` holds
  /// the stream's storage in place until the caller has parsed the block.
  bool claim(Block& b, std::shared_lock<std::shared_mutex>& parsing) {
    std::lock_guard lock(mu_);
    if (stop_) return false;
    if (!fill(b)) return false;
    std::size_t lines = 0;
    std::size_t records = 0;
    for_each_line(std::string_view(b.buf.data(), b.size),
                  [&](std::string_view line) {
                    ++lines;
                    records += is_record(line);
                  });
    b.first_line = lines_;
    lines_ += lines;
    const std::size_t first = stream_.size();
    const std::size_t total = first + records;
    if (total > stream_.capacity()) {
      // Moving the records must wait for every block being parsed.
      std::unique_lock grow(storage_mu_);
      stream_.reserve(std::max(total, 2 * stream_.capacity()));
    }
    parsing = std::shared_lock(storage_mu_);
    stream_.resize(total);
    b.out = stream_.data() + first;
    return true;
  }

  /// Records a bad line; no block is claimed after this, and the earliest
  /// bad line in file order is kept.
  void fail(BadLine bad) {
    std::lock_guard lock(mu_);
    stop_ = true;
    if (!error_ || bad.line < error_->line) error_ = std::move(bad);
  }

  /// Stops handing out blocks (a worker failed otherwise).
  void stop() {
    std::lock_guard lock(mu_);
    stop_ = true;
  }

  /// Throws the earliest failure, as the serial reader would have.
  void rethrow() const {
    if (error_) {
      throw ParseError("line " + std::to_string(error_->line) + ": " +
                       error_->what);
    }
  }

 private:
  /// Reads the cut line carried from the last block, then input up to the
  /// buffer's size, into `b`, and cuts it after its last newline; a line
  /// longer than the buffer grows it. False when nothing is left.
  bool fill(Block& b) {
    b.buf.resize(std::max(kReadBlockBytes, 2 * carry_.size()));
    std::size_t have = carry_.size();
    std::memcpy(b.buf.data(), carry_.data(), have);
    carry_.clear();
    while (true) {
      if (!eof_) {
        in_.read(b.buf.data() + have,
                 static_cast<std::streamsize>(b.buf.size() - have));
        const auto got = static_cast<std::size_t>(in_.gcount());
        eof_ = have + got < b.buf.size();
        have += got;
      }
      const auto nl = std::string_view(b.buf.data(), have).rfind('\n');
      if (eof_) {
        b.size = have;  // the last line needs no newline
        break;
      }
      if (nl != std::string_view::npos) {
        b.size = nl + 1;
        carry_.assign(b.buf.data() + b.size, b.buf.data() + have);
        break;
      }
      b.buf.resize(2 * b.buf.size());
    }
    return b.size > 0;
  }

  std::mutex mu_;  // guards everything below but storage_mu_
  std::istream& in_;
  bool eof_ = false;
  std::size_t lines_ = 0;    // lines handed out
  std::string carry_;        // a line cut by the last block's end
  bool stop_ = false;
  std::optional<BadLine> error_;
  RecordStream& stream_;
  /// Shared by every worker parsing into the stream; unique while it
  /// reallocates.
  std::shared_mutex storage_mu_;
};

/// Parses the lines of `b` into its slots, up to the first bad one.
std::optional<BadLine> parse_block(const Block& b) {
  std::size_t line_no = b.first_line;
  RawRecord* r = b.out;
  try {
    for_each_line(std::string_view(b.buf.data(), b.size),
                  [&](std::string_view line) {
                    ++line_no;
                    if (is_record(line)) parse_line(line, *r++);
                  });
  } catch (const ParseError& e) {
    return BadLine{line_no, e.what()};
  }
  return std::nullopt;
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

RecordStream read_stream(std::istream& in, unsigned workers) {
  if (workers == 0) workers = util::hardware_threads();
  RecordStream stream;
  if (const std::optional<Extent> input = extent(in)) {
    // Each worker gets at least one block. The stream is sized here, so
    // its storage comes from the calling thread's heap and is moved only
    // when the guess falls short.
    const std::size_t blocks = std::max<std::size_t>(
        1, (input->bytes + kReadBlockBytes - 1) / kReadBlockBytes);
    workers = static_cast<unsigned>(std::min<std::size_t>(workers, blocks));
    stream.reserve(input->records);
  }
  BlockReader reader(in, stream);
  util::fork_join(workers, [&reader](unsigned) {
    try {
      Block block;
      while (true) {
        std::optional<BadLine> bad;
        {
          std::shared_lock<std::shared_mutex> parsing;
          if (!reader.claim(block, parsing)) return;
          bad = parse_block(block);
        }
        // Reported with the storage released: a claim that reallocates
        // holds the reader's lock while it waits for that.
        if (bad) reader.fail(std::move(*bad));
      }
    } catch (...) {
      reader.stop();
      throw;
    }
  });
  reader.rethrow();
  return stream;
}

}  // namespace grca::telemetry
