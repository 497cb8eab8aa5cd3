// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Tests for the telemetry layer: syslog message vocabulary, the emitter's
// per-source conventions, stream ordering, and TSV persistence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "simulation/emitter.h"
#include "telemetry/attrs.h"
#include "telemetry/records_io.h"
#include "topology/topo_gen.h"
#include "util/strings.h"

namespace grca::telemetry {
namespace {

namespace t = topology;

// ---- message vocabulary -----------------------------------------------

TEST(Messages, CiscoStyleBodies) {
  EXPECT_EQ(msg::link_updown("so-0/0/0", false),
            "%LINK-3-UPDOWN: Interface so-0/0/0, changed state to down");
  EXPECT_EQ(msg::lineproto_updown("ge-1/0/2", true),
            "%LINEPROTO-5-UPDOWN: Line protocol on Interface ge-1/0/2, "
            "changed state to up");
  EXPECT_EQ(msg::bgp_adjchange("10.0.0.2", false, "Interface flap"),
            "%BGP-5-ADJCHANGE: neighbor 10.0.0.2 Down Interface flap");
  EXPECT_EQ(msg::bgp_notification("10.0.0.2", true, "4/0", "hold time expired"),
            "%BGP-5-NOTIFICATION: sent to neighbor 10.0.0.2 4/0 (hold time "
            "expired)");
  EXPECT_EQ(msg::pim_nbrchg("10.255.0.9", "mvpn-1", false),
            "%PIM-5-NBRCHG: VRF mvpn-1: neighbor 10.255.0.9 DOWN");
  EXPECT_NE(msg::linecard_crash(3).find("slot 3"), std::string::npos);
  EXPECT_NE(msg::cpu_threshold(95).find("95%"), std::string::npos);
}

// ---- emitter conventions -------------------------------------------------

TEST(Emitter, SourceConventions) {
  t::TopoParams tp;
  tp.pops = 2;
  tp.pers_per_pop = 1;
  tp.customers_per_per = 1;
  t::Network net = t::generate_isp(tp);
  sim::TelemetryEmitter emitter(net);
  const t::Router& r = net.routers()[0];
  util::TimeSec utc = util::make_utc(2010, 6, 1, 12, 0, 0);
  emitter.syslog(r.id, utc, "test");
  emitter.snmp_router(r.id, utc, "cpu5min", 50);
  emitter.tacacs(r.id, utc, "ops", "show version");
  auto stream = emitter.take();
  ASSERT_EQ(stream.size(), 3u);
  // Syslog: uppercase name, local timestamp.
  const RawRecord* syslog = &stream[0];
  for (const RawRecord& rec : stream) {
    if (rec.source == SourceType::kSyslog) syslog = &rec;
  }
  EXPECT_NE(syslog->device, r.name);
  EXPECT_EQ(util::to_lower(syslog->device.view()), r.name);
  EXPECT_NE(syslog->timestamp, utc);  // the router is not in UTC
  for (const RawRecord& rec : stream) {
    if (rec.source == SourceType::kSnmp) {
      EXPECT_NE(rec.device.view().find(".net.example"), std::string::npos);
      EXPECT_EQ(rec.timestamp, utc);  // poller stamps UTC
    }
    if (rec.source == SourceType::kTacacs) {
      EXPECT_EQ(rec.device, r.name);  // canonical lowercase
    }
  }
}

TEST(Emitter, TakeSortsByTrueUtc) {
  t::Network net = t::generate_isp(t::TopoParams{});
  sim::TelemetryEmitter emitter(net);
  emitter.syslog(net.routers()[0].id, 5000, "b");
  emitter.syslog(net.routers()[0].id, 1000, "a");
  emitter.workflow(net.routers()[0].id, 3000, "x");
  auto stream = emitter.take();
  ASSERT_EQ(stream.size(), 3u);
  EXPECT_LE(stream[0].true_utc, stream[1].true_utc);
  EXPECT_LE(stream[1].true_utc, stream[2].true_utc);
}

// ---- TSV persistence ---------------------------------------------------------

RawRecord sample_record() {
  RawRecord r;
  r.source = SourceType::kBgpMon;
  r.timestamp = 1262349000;
  r.device = "nyc-per1";
  r.field = "f";
  r.body = "announce with\ttab and\nnewline";
  r.value = 3.25;
  r.true_utc = 1262349001;
  r.attrs["prefix"] = "96.0.0.0/24";
  r.attrs["odd"] = "semi;colon=eq";
  return r;
}

TEST(RecordsIo, RoundTripSingle) {
  RawRecord r = sample_record();
  RawRecord back = from_tsv(to_tsv(r));
  EXPECT_EQ(back.source, r.source);
  EXPECT_EQ(back.timestamp, r.timestamp);
  EXPECT_EQ(back.device, r.device);
  EXPECT_EQ(back.body, r.body);
  EXPECT_EQ(back.value, r.value);
  EXPECT_EQ(back.true_utc, r.true_utc);
  EXPECT_EQ(back.attrs.at("prefix"), r.attrs.at("prefix"));
}

TEST(RecordsIo, RoundTripStream) {
  t::Network net = t::generate_isp(t::TopoParams{});
  sim::TelemetryEmitter emitter(net);
  emitter.syslog(net.routers()[0].id, 1000,
                 msg::link_updown("so-0/0/0", false));
  emitter.snmp_interface(net.links()[0].side_a, 1200, "ifutil", 91.5);
  emitter.ospfmon(net.links()[0].id, 1300, 20);
  RecordStream original = emitter.take();
  std::stringstream ss;
  write_stream(ss, original);
  RecordStream back = read_stream(ss);
  ASSERT_EQ(back.size(), original.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].source, original[i].source);
    EXPECT_EQ(back[i].timestamp, original[i].timestamp);
    EXPECT_EQ(back[i].device, original[i].device);
    EXPECT_EQ(back[i].body, original[i].body);
    EXPECT_EQ(back[i].attrs, original[i].attrs);
  }
}

TEST(RecordsIo, RejectsMalformedLines) {
  EXPECT_THROW(from_tsv("only three\tfields\there"), ParseError);
  EXPECT_THROW(from_tsv("nosuchsource\t1\td\tf\tb\t0\t1\t"), ParseError);
  EXPECT_THROW(
      from_tsv("syslog\t1\td\tf\tb\t0\t1\tbadattr-without-equals"),
      ParseError);
}

// ---- parser contract -------------------------------------------------------

/// A well-formed line with the given timestamp, value and true_utc fields.
std::string line_with(const std::string& timestamp, const std::string& value,
                      const std::string& true_utc) {
  return "snmp\t" + timestamp + "\tnyc-per1.net.example\tcpu5min\t\t" +
         value + "\t" + true_utc + "\tinterface=so-0/0/0";
}

void expect_same(const RawRecord& a, const RawRecord& b) {
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.timestamp, b.timestamp);
  EXPECT_EQ(a.device, b.device);
  EXPECT_EQ(a.field, b.field);
  EXPECT_EQ(a.body, b.body);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.true_utc, b.true_utc);
  EXPECT_EQ(a.attrs, b.attrs);
}

TEST(RecordsIo, TrailingGarbageInNumericFieldRejected) {
  EXPECT_NO_THROW(from_tsv(line_with("1262304300", "5", "1262304300")));
  EXPECT_THROW(from_tsv(line_with("1262304300x", "5", "1262304300")),
               ParseError);
  EXPECT_THROW(from_tsv(line_with("1262304300", "5.5kb", "1262304300")),
               ParseError);
  EXPECT_THROW(from_tsv(line_with("1262304300", "5", "1262304300 ")),
               ParseError);
}

TEST(RecordsIo, EmptyNumericFieldIsParseError) {
  EXPECT_THROW(from_tsv(line_with("", "5", "1262304300")), ParseError);
  EXPECT_THROW(from_tsv(line_with("1262304300", "", "1262304300")),
               ParseError);
  EXPECT_THROW(from_tsv(line_with("1262304300", "5", "")), ParseError);
}

TEST(RecordsIo, RepeatedAttrKeyLastWins) {
  RawRecord r = from_tsv("bgpmon\t1\t\t\twithdraw\t0\t1\t"
                         "prefix=96.12.65.0/24;egress=kcy-per18;"
                         "prefix=96.12.70.0/24");
  ASSERT_EQ(r.attrs.size(), 2u);
  EXPECT_EQ(r.attrs.at("prefix"), "96.12.70.0/24");
  EXPECT_EQ(r.attrs.at("egress"), "kcy-per18");
}

TEST(RecordsIo, EscapesRoundTrip) {
  RawRecord r = sample_record();
  r.device = "dev\\with\tall\nthree";
  r.field = "\\t is not a tab";
  r.body = "trailing backslash \\";
  r.attrs = {{"k\tey", "v\\al\nue"}, {"plain", "x"}};
  std::string line = to_tsv(r);
  EXPECT_EQ(std::count(line.begin(), line.end(), '\t'), 7);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  expect_same(from_tsv(line), r);
}

TEST(RecordsIo, SpecialValuesParse) {
  EXPECT_TRUE(std::isinf(from_tsv(line_with("1", "inf", "1")).value));
  EXPECT_EQ(from_tsv(line_with("1", "-inf", "1")).value,
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(from_tsv(line_with("1", "nan", "1")).value));
  EXPECT_EQ(from_tsv(line_with("1", "1e+06", "1")).value, 1e6);
  EXPECT_EQ(from_tsv(line_with("1", "-0.25", "1")).value, -0.25);
  // to_tsv prints a million as 1e+06, and it reads back.
  RawRecord r = sample_record();
  r.value = 1e6;
  EXPECT_NE(to_tsv(r).find("\t1e+06\t"), std::string::npos);
  EXPECT_EQ(from_tsv(to_tsv(r)).value, 1e6);
}

TEST(RecordsIo, ReadStreamAcrossBlocksMatchesLineByLine) {
  // Lines of varied length, so many straddle a block boundary; one line
  // ends exactly on the first boundary, one is longer than a block, there
  // are comment lines, and the text has no trailing newline.
  std::string text = "# header\n";
  auto add_record = [&](int i, std::size_t body_len) {
    RawRecord r = sample_record();
    r.timestamp += i;
    r.true_utc += i;
    r.value = i * 0.5;
    r.body = std::string(body_len, static_cast<char>('a' + i % 26));
    r.attrs = {{"i", std::to_string(i)}, {"prefix", "96.0.0.0/24"}};
    text += to_tsv(r);
    text += '\n';
  };
  int i = 0;
  while (text.size() < kReadBlockBytes - 300) {
    add_record(i, i * 37 % 200);
    ++i;
  }
  text += '#';
  text += std::string(kReadBlockBytes - text.size() - 1, '-');
  text += '\n';
  ASSERT_EQ(text.size(), kReadBlockBytes);
  add_record(i++, kReadBlockBytes + 1000);
  while (text.size() < 4 * kReadBlockBytes) {
    add_record(i, i * 53 % 300);
    if (++i % 50 == 0) text += "# comment\n";
  }
  text.pop_back();
  ASSERT_NE(text.back(), '\n');

  std::istringstream in(text);
  RecordStream streamed = read_stream(in);
  RecordStream expected;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line[0] != '#') expected.push_back(from_tsv(line));
  }
  ASSERT_EQ(streamed.size(), expected.size());
  ASSERT_EQ(static_cast<int>(streamed.size()), i);
  for (std::size_t k = 0; k < streamed.size(); ++k) {
    expect_same(streamed[k], expected[k]);
  }
}

TEST(RecordsIo, ReadStreamErrorNamesLine) {
  std::istringstream in("# header\n" + line_with("1", "5", "1") + "\n" +
                        line_with("1", "5x", "1") + "\n" +
                        line_with("2", "5", "2") + "\n");
  try {
    read_stream(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("bad value '5x'"), std::string::npos) << what;
  }
}

/// A stream buffer over a string that cannot seek, as a pipe cannot.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 private:
  std::string text_;
};

/// Seeded text of several blocks: escaped fields, comment and empty lines,
/// one line longer than a block, and no final newline.
std::string seeded_records_text(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::string text = "# header\n";
  int i = 0;
  auto add_record = [&](std::size_t body_len) {
    RawRecord r = sample_record();
    r.timestamp += i;
    r.true_utc += i;
    r.value = (i % 7) * 0.25;
    r.device = "dev-" + std::to_string(rng() % 50) + (i % 11 ? "" : "\tx");
    r.body = std::string(body_len, static_cast<char>('a' + i % 26));
    if (i % 5 == 0) r.body += "\\ and\ttab\nnewline";
    r.attrs = {{"i", std::to_string(i)},
               {"k\tey", "v\\" + std::to_string(rng() % 9)}};
    text += to_tsv(r);
    text += '\n';
    ++i;
  };
  while (text.size() < 5 * kReadBlockBytes) {
    add_record(rng() % 300);
    switch (rng() % 40) {
      case 0: text += "# comment\n"; break;
      case 1: text += "\n"; break;
      default: break;
    }
    if (i == 700) add_record(kReadBlockBytes + 5000);
  }
  while (text.back() == '\n') text.pop_back();
  return text;
}

/// The records of `text`, one line at a time.
RecordStream line_by_line(const std::string& text) {
  RecordStream out;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line[0] != '#') out.push_back(from_tsv(line));
  }
  return out;
}

TEST(RecordsIo, ReadStreamSameAtEveryWorkerCount) {
  for (std::uint32_t seed : {1u, 2u}) {
    const std::string text = seeded_records_text(seed);
    ASSERT_NE(text.back(), '\n');
    const RecordStream want = line_by_line(text);
    for (unsigned workers : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", workers " +
                   std::to_string(workers));
      std::istringstream seekable(text);
      PipeBuf pipe_buf(text);
      std::istream pipe(&pipe_buf);
      ASSERT_EQ(pipe.tellg(), std::streampos(-1));
      for (std::istream* in : {static_cast<std::istream*>(&seekable), &pipe}) {
        const RecordStream got = read_stream(*in, workers);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t k = 0; k < got.size(); ++k) {
          expect_same(got[k], want[k]);
        }
      }
    }
  }
}

TEST(RecordsIo, ReadStreamNamesFirstBadLineAtEveryWorkerCount) {
  // Two bad lines in neighbouring blocks: one near the end of its block,
  // one near the start of the next, so the later one is usually met first
  // when blocks parse side by side. The error names the earlier one.
  std::string text = "# header\n";
  std::size_t line = 1;
  std::size_t first_bad = 0;
  bool second_bad = false;
  while (text.size() < 6 * kReadBlockBytes) {
    ++line;
    if (first_bad == 0 && text.size() > 3 * kReadBlockBytes - 200) {
      first_bad = line;
      text += line_with("1", "5x", "1") + "\n";
    } else if (!second_bad && text.size() > 3 * kReadBlockBytes + 200) {
      second_bad = true;
      text += line_with("1", "5", "1") + "\tthe\textra\tfields\n";
    } else {
      text += line_with(std::to_string(line), "5", "1") + "\n";
    }
  }
  for (unsigned workers : {1u, 2u, 3u, 4u}) {
    PipeBuf pipe_buf(text);
    std::istream pipe(&pipe_buf);
    std::istringstream seekable(text);
    for (std::istream* in : {static_cast<std::istream*>(&seekable), &pipe}) {
      try {
        read_stream(*in, workers);
        FAIL() << "expected ParseError at " << workers << " workers";
      } catch (const ParseError& e) {
        EXPECT_EQ(std::string(e.what()),
                  "line " + std::to_string(first_bad) + ": bad value '5x'")
            << workers << " workers";
      }
    }
  }
}

TEST(RecordsIo, SourceNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(SourceType::kWorkflowLog); ++i) {
    auto type = static_cast<SourceType>(i);
    EXPECT_EQ(parse_source(source_name(type)), type);
  }
  EXPECT_THROW(parse_source("carrier-pigeon"), ParseError);
}

// ---- Attrs -------------------------------------------------------------------

std::vector<std::pair<std::string, std::string>> items(const Attrs& attrs) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [k, v] : attrs) out.emplace_back(k.str(), v.str());
  return out;
}

TEST(Attrs, LastWins) {
  Attrs a{{"prefix", "96.0.0.0/24"}, {"egress", "e1"}, {"prefix", "96.1.0.0/24"}};
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.at("prefix"), "96.1.0.0/24");
  a["egress"] = "e2";
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.at("egress"), "e2");
}

TEST(Attrs, IteratesInKeyOrder) {
  Attrs a;
  for (const char* key : {"zeta", "alpha", "mid", "beta"}) a[key] = key;
  std::vector<std::pair<std::string, std::string>> want = {
      {"alpha", "alpha"}, {"beta", "beta"}, {"mid", "mid"}, {"zeta", "zeta"}};
  EXPECT_EQ(items(a), want);
}

TEST(Attrs, FindAndMiss) {
  Attrs a{{"router", "nyc-per1"}, {"interface", "so-0/0/0"}};
  auto it = a.find(util::Symbol("router"));
  ASSERT_NE(it, a.end());
  EXPECT_EQ(it->second, "nyc-per1");
  EXPECT_EQ(a.at("interface"), "so-0/0/0");
  EXPECT_EQ(a.find(util::Symbol("no-such-attr-key")), a.end());
  EXPECT_THROW(a.at("no-such-attr-key"), std::out_of_range);
  const Attrs none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.find(util::Symbol("router")), none.end());
}

TEST(Attrs, SpillsPastInlinePairs) {
  Attrs a;
  std::map<std::string, std::string> want;
  for (int i = 0; i < 9; ++i) {
    const std::string key = "k" + std::to_string((i * 5) % 9);
    a[key] = "v" + std::to_string(i);
    want[key] = "v" + std::to_string(i);
    ASSERT_EQ(items(a),
              (std::vector<std::pair<std::string, std::string>>(want.begin(),
                                                                 want.end())));
  }
  Attrs copy = a;
  EXPECT_EQ(copy, a);
  Attrs moved = std::move(copy);
  EXPECT_EQ(moved, a);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  Attrs small{{"k", "v"}};
  Attrs big = a;
  big = small;  // spilled <- inline
  EXPECT_EQ(big, small);
  small = a;  // inline <- spilled
  EXPECT_EQ(small, a);
  small = std::move(big);
  EXPECT_EQ(items(small),
            (std::vector<std::pair<std::string, std::string>>{{"k", "v"}}));
}

TEST(Attrs, OrderingMatchesStdMap) {
  std::mt19937 rng(11);
  auto random_map = [&] {
    std::map<std::string, std::string> m;
    const int n = static_cast<int>(rng() % 5);
    for (int i = 0; i < n; ++i) {
      m[std::string(1, static_cast<char>('a' + rng() % 3))] =
          std::string(rng() % 3, static_cast<char>('x' + rng() % 3));
    }
    return m;
  };
  auto to_attrs = [](const std::map<std::string, std::string>& m) {
    Attrs a;
    // Inserted in reverse key order, so no pair arrives at the end.
    for (auto it = m.rbegin(); it != m.rend(); ++it) a[it->first] = it->second;
    return a;
  };
  for (int i = 0; i < 2000; ++i) {
    auto x = random_map();
    auto y = random_map();
    EXPECT_EQ(to_attrs(x) <=> to_attrs(y), x <=> y);
    EXPECT_EQ(to_attrs(x) == to_attrs(y), x == y);
  }
}

}  // namespace
}  // namespace grca::telemetry
