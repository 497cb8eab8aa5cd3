// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Unit tests for grca::util — time model, RNG, strings, tables, IPv4.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/ipv4.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/symbol.h"
#include "util/table.h"
#include "util/time.h"

namespace grca::util {
namespace {

// ---- time -------------------------------------------------------------

TEST(Time, MakeUtcEpoch) { EXPECT_EQ(make_utc(1970, 1, 1), 0); }

TEST(Time, MakeUtcKnownDate) {
  // 2010-01-01 12:30:00 UTC == 1262349000 (known value).
  EXPECT_EQ(make_utc(2010, 1, 1, 12, 30, 0), 1262349000);
}

TEST(Time, FormatRoundTrip) {
  TimeSec t = make_utc(2010, 1, 1, 12, 30, 0);
  EXPECT_EQ(format_utc(t), "2010-01-01 12:30:00");
  EXPECT_EQ(parse_utc("2010-01-01 12:30:00"), t);
}

TEST(Time, FormatBeforeEpoch) {
  EXPECT_EQ(format_utc(-1), "1969-12-31 23:59:59");
}

TEST(Time, LeapYearFebruary) {
  EXPECT_EQ(format_utc(make_utc(2012, 2, 29, 0, 0, 0)), "2012-02-29 00:00:00");
  EXPECT_THROW(make_utc(2011, 2, 29), ParseError);
}

TEST(Time, ParseRejectsGarbage) {
  EXPECT_THROW(parse_utc("not a date"), ParseError);
  EXPECT_THROW(parse_utc("2010-13-01 00:00:00"), ParseError);
  EXPECT_THROW(parse_utc("2010-01-32 00:00:00"), ParseError);
}

TEST(Time, TimeZoneConversion) {
  TimeZone eastern = TimeZone::us_eastern();
  TimeSec utc = make_utc(2010, 6, 1, 12, 0, 0);
  TimeSec local = eastern.from_utc(utc);
  EXPECT_EQ(local, utc - 5 * kHour);
  EXPECT_EQ(eastern.to_utc(local), utc);
}

TEST(Time, TimeZoneRoundTripAllZones) {
  for (const TimeZone& tz :
       {TimeZone::utc(), TimeZone::us_eastern(), TimeZone::us_central(),
        TimeZone::us_mountain(), TimeZone::us_pacific()}) {
    TimeSec t = make_utc(2010, 3, 15, 7, 45, 13);
    EXPECT_EQ(tz.to_utc(tz.from_utc(t)), t) << tz.name();
  }
}

TEST(TimeInterval, OverlapCases) {
  TimeInterval a{100, 200};
  EXPECT_TRUE(a.overlaps({150, 160}));   // contained
  EXPECT_TRUE(a.overlaps({50, 100}));    // touching left edge
  EXPECT_TRUE(a.overlaps({200, 300}));   // touching right edge
  EXPECT_TRUE(a.overlaps({0, 500}));     // containing
  EXPECT_FALSE(a.overlaps({201, 300}));  // right of
  EXPECT_FALSE(a.overlaps({0, 99}));     // left of
}

TEST(TimeInterval, InstantEvents) {
  TimeInterval instant{100, 100};
  EXPECT_TRUE(instant.valid());
  EXPECT_EQ(instant.duration(), 0);
  EXPECT_TRUE(instant.overlaps({100, 100}));
  EXPECT_FALSE(instant.overlaps({101, 101}));
}

// Property sweep: overlap is symmetric and matches the interval definition.
class IntervalOverlapProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntervalOverlapProperty, SymmetricAndConsistent) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    TimeSec s1 = rng.range(0, 1000), s2 = rng.range(0, 1000);
    TimeInterval a{s1, s1 + rng.range(0, 100)};
    TimeInterval b{s2, s2 + rng.range(0, 100)};
    EXPECT_EQ(a.overlaps(b), b.overlaps(a));
    bool expected = !(a.end < b.start || b.end < a.start);
    EXPECT_EQ(a.overlaps(b), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalOverlapProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---- rng --------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, WeightedRespectsZeroWeight) {
  Rng rng(3);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(rng.weighted(w), 1u);
}

TEST(Rng, WeightedApproximatesDistribution) {
  Rng rng(4);
  std::vector<double> w = {1.0, 3.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted(w)];
  double ratio = static_cast<double>(counts[1]) / counts[0];
  EXPECT_NEAR(ratio, 3.0, 0.5);
}

TEST(Rng, ExponentialMean) {
  Rng rng(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, SplitIndependence) {
  Rng a(7);
  Rng child = a.split();
  // Child stream should differ from parent continuation.
  EXPECT_NE(child.next(), a.next());
}

// ---- strings ------------------------------------------------------------

TEST(Strings, SplitPreservesEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitSingleToken) {
  auto parts = split("alone", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "alone");
}

TEST(Strings, SplitWsDropsEmpty) {
  auto parts = split_ws("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitWsEmptyInput) { EXPECT_TRUE(split_ws("   ").empty()); }

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strings, CasePredicates) {
  EXPECT_EQ(to_lower("ABc-1"), "abc-1");
  EXPECT_TRUE(starts_with("interface down", "interface"));
  EXPECT_FALSE(starts_with("if", "interface"));
  EXPECT_TRUE(ends_with("router1", "1"));
  EXPECT_TRUE(contains("LINK-3-UPDOWN msg", "UPDOWN"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(63.944, 2), "63.94");
  EXPECT_EQ(format_double(0.5, 0), "0");  // round-half-even is fine
}

TEST(Strings, StableHashPinnedValues) {
  // Seeds and golden fixtures derive from these exact values (including
  // the non-standard offset basis); a change here is a fixture break.
  EXPECT_EQ(stable_hash(""), 1469598103934665603ull);
  EXPECT_EQ(stable_hash("bgp"), 15498545828844798404ull);
}

// ---- table --------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"Root Cause", "Percentage (%)"});
  t.add_row({"Interface flap", "63.94"});
  t.add_row({"Unknown", "10.95"});
  std::string out = t.render("Table IV");
  EXPECT_NE(out.find("Table IV"), std::string::npos);
  EXPECT_NE(out.find("Interface flap"), std::string::npos);
  EXPECT_NE(out.find("63.94"), std::string::npos);
}

TEST(TextTable, RejectsBadRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ConfigError);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), ConfigError);
}

// ---- ipv4 ----------------------------------------------------------------

TEST(Ipv4, ParseFormatRoundTrip) {
  for (const char* s : {"0.0.0.0", "10.255.0.1", "192.0.2.33", "255.255.255.255"}) {
    EXPECT_EQ(Ipv4Addr::parse(s).to_string(), s);
  }
}

TEST(Ipv4, ParseRejectsGarbage) {
  EXPECT_THROW(Ipv4Addr::parse("10.0.0"), ParseError);
  EXPECT_THROW(Ipv4Addr::parse("10.0.0.256"), ParseError);
  EXPECT_THROW(Ipv4Addr::parse("10.0.0.1x"), ParseError);
}

TEST(Ipv4Prefixes, MasksHostBits) {
  Ipv4Prefix p(Ipv4Addr::parse("10.1.2.3"), 24);
  EXPECT_EQ(p.to_string(), "10.1.2.0/24");
}

TEST(Ipv4Prefixes, Contains) {
  Ipv4Prefix p = Ipv4Prefix::parse("10.1.2.0/24");
  EXPECT_TRUE(p.contains(Ipv4Addr::parse("10.1.2.255")));
  EXPECT_FALSE(p.contains(Ipv4Addr::parse("10.1.3.0")));
}

TEST(Ipv4Prefixes, CoversOrdering) {
  Ipv4Prefix wide = Ipv4Prefix::parse("10.0.0.0/8");
  Ipv4Prefix narrow = Ipv4Prefix::parse("10.1.2.0/30");
  EXPECT_TRUE(wide.covers(narrow));
  EXPECT_FALSE(narrow.covers(wide));
  EXPECT_TRUE(wide.covers(wide));
}

TEST(Ipv4Prefixes, ZeroLengthCoversEverything) {
  Ipv4Prefix any = Ipv4Prefix::parse("0.0.0.0/0");
  EXPECT_TRUE(any.contains(Ipv4Addr::parse("203.0.113.7")));
}

TEST(Ipv4Prefixes, RejectsBadLength) {
  EXPECT_THROW(Ipv4Prefix::parse("10.0.0.0/33"), ParseError);
  EXPECT_THROW(Ipv4Prefix::parse("10.0.0.0"), ParseError);
}

TEST(Ipv4Prefixes, SlashThirtyPointToPoint) {
  // The /30 convention used for inferring link attachment (§II-B util 4).
  Ipv4Prefix p30 = Ipv4Prefix::parse("10.0.0.0/30");
  EXPECT_TRUE(p30.contains(Ipv4Addr::parse("10.0.0.1")));
  EXPECT_TRUE(p30.contains(Ipv4Addr::parse("10.0.0.2")));
  EXPECT_FALSE(p30.contains(Ipv4Addr::parse("10.0.0.4")));
}

// ---- symbols -----------------------------------------------------------

TEST(Symbol, EmptyStringIsIdZero) {
  EXPECT_EQ(Symbol().id(), 0u);
  EXPECT_TRUE(Symbol().empty());
  EXPECT_EQ(Symbol("").id(), 0u);
  EXPECT_EQ(Symbol().view(), "");
}

TEST(Symbol, EqualContentEqualIdAndTextRoundTrips) {
  Symbol a("symbol-test-nyc-per1");
  Symbol b(std::string("symbol-test-") + "nyc-per1");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.view(), "symbol-test-nyc-per1");
  EXPECT_EQ(a, "symbol-test-nyc-per1");
  EXPECT_NE(a, Symbol("symbol-test-nyc-per2"));
}

TEST(Symbol, OrderIsTextOrderNotIdOrder) {
  // Interned in reverse text order: ids rise as the texts fall.
  Symbol z("symbol-order-z");
  Symbol m("symbol-order-m");
  Symbol a("symbol-order-a");
  EXPECT_GT(a.id(), z.id());
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
  EXPECT_LT(Symbol(), a);  // "" sorts first
  EXPECT_EQ(a <=> Symbol("symbol-order-a"), std::strong_ordering::equal);
}

TEST(Symbol, FindInternsNothing) {
  EXPECT_FALSE(Symbol::find("symbol-find-never-interned").has_value());
  EXPECT_FALSE(Symbol::find("symbol-find-never-interned").has_value());
  Symbol s("symbol-find-interned");
  ASSERT_TRUE(Symbol::find("symbol-find-interned").has_value());
  EXPECT_EQ(*Symbol::find("symbol-find-interned"), s);
}

TEST(Symbol, RepeatedInternAgreesWithTable) {
  // More texts than a thread's memo of recent ids has slots, interned over
  // and over: a memo hit, a miss and an evicted slot all give the table's
  // id (find() reads the table alone).
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10000; ++i) {
      const std::string text = "symbol-repeat-" + std::to_string(i);
      const Symbol s(text);
      ASSERT_EQ(s.view(), text);
      ASSERT_EQ(Symbol::find(text), s);
    }
  }
  EXPECT_TRUE(Symbol("").empty());
}

TEST(Symbol, ConcurrentInternAgrees) {
  // 8 threads intern overlapping strings, each in its own order, enough of
  // them that several table chunks are allocated while others read.
  constexpr int kThreads = 8;
  constexpr int kStrings = 8192;  // a power of two: odd strides permute it
  auto text = [](int i) { return "symbol-concurrent-" + std::to_string(i); };
  std::vector<std::vector<std::uint32_t>> ids(
      kThreads, std::vector<std::uint32_t>(kStrings));
  std::vector<int> bad(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kStrings; ++k) {
        // Thread t walks the strings from its own offset.
        const int i = (k * (2 * t + 1) + 997 * t) % kStrings;
        const Symbol s(text(i));
        ids[t][i] = s.id();
        if (s.view() != text(i)) ++bad[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bad[t], 0) << "thread " << t;
    EXPECT_EQ(ids[t], ids[0]) << "thread " << t;
  }
  std::set<std::uint32_t> distinct(ids[0].begin(), ids[0].end());
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kStrings));
}

TEST(Strings, ParseNumberIsWhole) {
  EXPECT_EQ(parse_number<int>("42"), 42);
  EXPECT_EQ(parse_number<int>("-7"), -7);
  EXPECT_FALSE(parse_number<int>("").has_value());
  EXPECT_FALSE(parse_number<int>("x").has_value());
  EXPECT_FALSE(parse_number<int>("12x").has_value());
  EXPECT_FALSE(parse_number<int>(" 12").has_value());
  EXPECT_FALSE(parse_number<int>("99999999999").has_value());
  EXPECT_EQ(parse_number<double>("2.5"), 2.5);
}

}  // namespace
}  // namespace grca::util
