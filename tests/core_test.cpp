// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Unit tests for the G-RCA core: temporal rules (Fig. 3 semantics), event
// store queries, diagnosis graph invariants, and the rule DSL.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/diagnosis_graph.h"
#include "core/event_store.h"
#include "core/knowledge_library.h"
#include "core/rule_dsl.h"
#include "core/temporal.h"
#include "util/rng.h"

namespace grca::core {
namespace {

// ---- Temporal rules (Fig. 3) -------------------------------------------

TEST(Temporal, StartEndExpansion) {
  TemporalSide side{ExpandOption::kStartEnd, 10, 20};
  util::TimeInterval expanded = side.expand({100, 200});
  EXPECT_EQ(expanded.start, 90);
  EXPECT_EQ(expanded.end, 220);
}

TEST(Temporal, StartStartExpansion) {
  TemporalSide side{ExpandOption::kStartStart, 10, 20};
  util::TimeInterval expanded = side.expand({100, 200});
  EXPECT_EQ(expanded.start, 90);
  EXPECT_EQ(expanded.end, 120);
}

TEST(Temporal, EndEndExpansion) {
  TemporalSide side{ExpandOption::kEndEnd, 10, 20};
  util::TimeInterval expanded = side.expand({100, 200});
  EXPECT_EQ(expanded.start, 190);
  EXPECT_EQ(expanded.end, 220);
}

TEST(Temporal, NegativeMarginsShrink) {
  TemporalSide side{ExpandOption::kStartEnd, -5, -5};
  util::TimeInterval expanded = side.expand({100, 200});
  EXPECT_EQ(expanded.start, 105);
  EXPECT_EQ(expanded.end, 195);
}

TEST(Temporal, PaperHoldTimerExample) {
  // §II-C worked example: eBGP flap (Start/Start, X=180, Y=5) at [1000,2000]
  // expands to [820, 1005]; interface flap (Start/End, X=5, Y=5) at
  // [900, 901] expands to [895, 906]; the two overlap -> joined.
  TemporalRule rule;
  rule.symptom = {ExpandOption::kStartStart, 180, 5};
  rule.diagnostic = {ExpandOption::kStartEnd, 5, 5};
  util::TimeInterval flap{1000, 2000};
  util::TimeInterval iface{900, 901};
  EXPECT_EQ(rule.symptom.expand(flap), (util::TimeInterval{820, 1005}));
  EXPECT_EQ(rule.diagnostic.expand(iface), (util::TimeInterval{895, 906}));
  EXPECT_TRUE(rule.joined(flap, iface));
  // An interface flap 10 minutes earlier does not join.
  EXPECT_FALSE(rule.joined(flap, {400, 401}));
  // Nor one after the symptom (beyond Y).
  EXPECT_FALSE(rule.joined(flap, {1011, 1012}));
}

TEST(Temporal, ParseRoundTrip) {
  for (ExpandOption opt : {ExpandOption::kStartEnd, ExpandOption::kStartStart,
                           ExpandOption::kEndEnd}) {
    EXPECT_EQ(parse_expand_option(to_string(opt)), opt);
  }
  EXPECT_THROW(parse_expand_option("sideways"), ParseError);
}

// Property: expansion is monotone in the margins.
class TemporalMarginProperty : public ::testing::TestWithParam<int> {};

TEST_P(TemporalMarginProperty, WiderMarginsJoinMore) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    TemporalRule narrow;
    narrow.symptom = {ExpandOption::kStartEnd, rng.range(0, 50),
                      rng.range(0, 50)};
    narrow.diagnostic = {ExpandOption::kStartEnd, rng.range(0, 50),
                         rng.range(0, 50)};
    TemporalRule wide = narrow;
    wide.symptom.left += 20;
    wide.diagnostic.right += 20;
    util::TimeInterval s{rng.range(0, 1000), 0};
    s.end = s.start + rng.range(0, 100);
    util::TimeInterval d{rng.range(0, 1000), 0};
    d.end = d.start + rng.range(0, 100);
    if (narrow.joined(s, d)) {
      EXPECT_TRUE(wide.joined(s, d));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TemporalMarginProperty,
                         ::testing::Values(1, 2, 3));

// ---- EventStore -----------------------------------------------------------

EventInstance make_event(const std::string& name, util::TimeSec start,
                         util::TimeSec end, const std::string& router = "r1") {
  return EventInstance{name, {start, end}, Location::router(router), {}};
}

TEST(EventStore, WindowQueryFindsOverlaps) {
  EventStore store;
  store.add(make_event("e", 100, 200));
  store.add(make_event("e", 300, 400));
  store.add(make_event("e", 500, 600));
  EXPECT_EQ(store.query("e", 150, 350).size(), 2u);
  EXPECT_EQ(store.query("e", 0, 1000).size(), 3u);
  EXPECT_EQ(store.query("e", 201, 299).size(), 0u);
  EXPECT_EQ(store.query("e", 200, 300).size(), 2u);  // closed intervals
}

TEST(EventStore, UnsortedInsertStillSortedQueries) {
  EventStore store;
  store.add(make_event("e", 500, 510));
  store.add(make_event("e", 100, 110));
  store.add(make_event("e", 300, 310));
  auto all = store.all("e");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_LT(all[0].when.start, all[1].when.start);
  EXPECT_LT(all[1].when.start, all[2].when.start);
}

TEST(EventStore, LongDurationInstanceFound) {
  EventStore store;
  store.add(make_event("e", 0, 10000));   // long-running condition
  store.add(make_event("e", 5000, 5001));
  EXPECT_EQ(store.query("e", 9000, 9500).size(), 1u);
}

TEST(EventStore, PredicateFilter) {
  EventStore store;
  store.add(make_event("e", 100, 200, "r1"));
  store.add(make_event("e", 100, 200, "r2"));
  auto got = store.query("e", 0, 300, [](const EventInstance& e) {
    return e.where.a == "r2";
  });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0]->where.a, "r2");
}

TEST(EventStore, UnknownEventEmpty) {
  EventStore store;
  EXPECT_TRUE(store.query("nope", 0, 100).empty());
  EXPECT_TRUE(store.all("nope").empty());
}

TEST(EventStore, RejectsInvalidInterval) {
  EventStore store;
  EXPECT_THROW(store.add(make_event("e", 200, 100)), ConfigError);
}

TEST(EventStore, EventNamesSorted) {
  EventStore store;
  store.add(make_event("zeta", 0, 1));
  store.add(make_event("alpha", 0, 1));
  auto names = store.event_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

// Oracle property: under seeded interleavings of in-order, tied and
// out-of-order adds with queries, warm() and finalize(), every read equals
// a stable sort by start of the adds so far, and after each warm() every
// instance's where_id resolves to its location, as in a store built from
// the same adds and warmed once (ids are per-table, so locations compare).
TEST(EventStore, MatchesStableSortOracleUnderRandomInterleavings) {
  const std::vector<std::string> names = {"a", "b", "c"};
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    util::Rng rng(seed);
    EventStore store;
    std::map<std::string, std::vector<EventInstance>> added;
    std::vector<EventInstance> log;  // every add, in order
    auto oracle = [&](const std::string& name) {
      std::vector<EventInstance> out = added[name];
      std::stable_sort(out.begin(), out.end(),
                       [](const EventInstance& x, const EventInstance& y) {
                         return x.when.start < y.when.start;
                       });
      return out;
    };
    auto check_locations = [&] {
      EventStore fresh;
      for (const EventInstance& e : log) fresh.add(e);
      fresh.warm();
      for (const std::string& name : names) {
        auto got = store.all(name);
        auto want = fresh.all(name);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_NE(got[i].where_id, kInvalidLocId) << "seed " << seed;
          EXPECT_EQ(store.locations().at(got[i].where_id), got[i].where);
          EXPECT_EQ(store.locations().at(got[i].where_id),
                    fresh.locations().at(want[i].where_id))
              << "seed " << seed << " " << name << "[" << i << "]";
        }
      }
      EXPECT_EQ(store.locations().size(), fresh.locations().size());
    };
    const int ops = 300;
    const int finalize_at = ops - static_cast<int>(rng.below(40));
    std::vector<const EventInstance*> out;
    for (int op = 0; op < ops; ++op) {
      const std::string& name = names[rng.below(names.size())];
      if (op == finalize_at) {
        store.finalize();
        EXPECT_THROW(store.add(make_event(name, 0, 1)), ConfigError);
        check_locations();
        continue;
      }
      switch (store.finalized() ? 1 + rng.below(3) : rng.below(5)) {
        case 0:
        case 4: {
          const auto& bucket = added[name];
          util::TimeSec last = bucket.empty() ? 1000 : bucket.back().when.start;
          util::TimeSec start = last;
          switch (rng.below(3)) {
            case 0: start = last + rng.range(1, 50); break;  // in order
            case 1: break;                                   // tied
            default: start = last - rng.range(1, 200);       // out of order
          }
          EventInstance e = make_event(name, start, start + rng.range(0, 80),
                                       "r" + std::to_string(rng.below(12)));
          e.attrs["seq"] = std::to_string(log.size());
          store.add(e);
          added[name].push_back(e);
          log.push_back(e);
          break;
        }
        case 1: {
          auto got = store.all(name);
          auto want = oracle(name);
          ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], want[i]) << "seed " << seed << " all " << name;
          }
          break;
        }
        case 2: {
          util::TimeSec from = rng.range(0, 3000);
          util::TimeSec to = from + rng.range(0, 400);
          store.query_into(name, from, to, out);
          std::vector<EventInstance> want;
          for (const EventInstance& e : oracle(name)) {
            if (e.when.start <= to && e.when.end >= from) want.push_back(e);
          }
          ASSERT_EQ(out.size(), want.size()) << "seed " << seed;
          for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_EQ(*out[i], want[i]) << "seed " << seed << " query";
          }
          break;
        }
        default:
          store.warm();
          check_locations();
      }
    }
    EXPECT_EQ(store.total_instances(), log.size());
  }
}

// ---- DiagnosisGraph ---------------------------------------------------------

DiagnosisGraph tiny_graph() {
  DiagnosisGraph g;
  g.define_event({"sym", LocationType::kRouter, "", "", ""});
  g.define_event({"mid", LocationType::kRouter, "", "", ""});
  g.define_event({"leaf", LocationType::kRouter, "", "", ""});
  g.add_rule({"sym", "mid", TemporalRule::default_rule(),
              LocationType::kRouter, 10});
  g.add_rule({"mid", "leaf", TemporalRule::default_rule(),
              LocationType::kRouter, 20});
  g.set_root("sym");
  return g;
}

TEST(DiagnosisGraph, ValidGraphPasses) { tiny_graph().validate(); }

TEST(DiagnosisGraph, RejectsUndefinedEndpoints) {
  DiagnosisGraph g;
  g.define_event({"a", LocationType::kRouter, "", "", ""});
  EXPECT_THROW(g.add_rule({"a", "ghost", TemporalRule::default_rule(),
                           LocationType::kRouter, 1}),
               ConfigError);
  EXPECT_THROW(g.add_rule({"ghost", "a", TemporalRule::default_rule(),
                           LocationType::kRouter, 1}),
               ConfigError);
}

TEST(DiagnosisGraph, RejectsSelfLoop) {
  DiagnosisGraph g;
  g.define_event({"a", LocationType::kRouter, "", "", ""});
  EXPECT_THROW(g.add_rule({"a", "a", TemporalRule::default_rule(),
                           LocationType::kRouter, 1}),
               ConfigError);
}

TEST(DiagnosisGraph, RejectsCycle) {
  // The §IV-B cyclic causal relationship (BGP flap <-> CPU overload) must be
  // rejected at configuration time.
  DiagnosisGraph g = tiny_graph();
  g.add_rule({"leaf", "sym", TemporalRule::default_rule(),
              LocationType::kRouter, 5});
  EXPECT_THROW(g.validate(), ConfigError);
}

TEST(DiagnosisGraph, RequiresRoot) {
  DiagnosisGraph g;
  g.define_event({"a", LocationType::kRouter, "", "", ""});
  EXPECT_THROW(g.validate(), ConfigError);
}

TEST(DiagnosisGraph, RedefinitionReplaces) {
  DiagnosisGraph g = tiny_graph();
  g.define_event({"leaf", LocationType::kInterface, "", "new desc", ""});
  EXPECT_EQ(g.event("leaf").location_type, LocationType::kInterface);
  EXPECT_EQ(g.events().size(), 3u);  // no duplicate node
}

TEST(DiagnosisGraph, RulesFrom) {
  DiagnosisGraph g = tiny_graph();
  EXPECT_EQ(g.rules_from("sym").size(), 1u);
  EXPECT_EQ(g.rules_from("leaf").size(), 0u);
}

// ---- Rule DSL ------------------------------------------------------------------

TEST(RuleDsl, ParsesEventAndRule) {
  DiagnosisGraph g;
  load_dsl(R"(
# a comment
event flap {
  location router-neighbor
  source syslog
  desc "session flap"
}
event cause {
  location interface
}
rule flap -> cause {
  priority 42
  symptom start-start 180 5
  diagnostic start-end 5 5
  join interface
}
graph {
  root flap
}
)",
           g);
  g.validate();
  EXPECT_EQ(g.root(), "flap");
  EXPECT_EQ(g.event("flap").location_type, LocationType::kRouterNeighbor);
  EXPECT_EQ(g.event("flap").description, "session flap");
  ASSERT_EQ(g.rules().size(), 1u);
  const DiagnosisRule& rule = g.rules()[0];
  EXPECT_EQ(rule.priority, 42);
  EXPECT_EQ(rule.temporal.symptom.option, ExpandOption::kStartStart);
  EXPECT_EQ(rule.temporal.symptom.left, 180);
  EXPECT_EQ(rule.join_level, LocationType::kInterface);
}

TEST(RuleDsl, RejectsSyntaxErrors) {
  DiagnosisGraph g;
  EXPECT_THROW(load_dsl("event {\n}", g), ParseError);
  EXPECT_THROW(load_dsl("event x {\n location nowhere\n}", g), ParseError);
  EXPECT_THROW(load_dsl("bogus x {\n}", g), ParseError);
  EXPECT_THROW(load_dsl("event x {\n location router\n", g), ParseError);
  EXPECT_THROW(load_dsl("rule a b {\n}", g), ParseError);
}

TEST(RuleDsl, RejectsRuleOnUndefinedEvents) {
  DiagnosisGraph g;
  EXPECT_THROW(load_dsl("rule a -> b {\n priority 1\n}", g), ConfigError);
}

TEST(RuleDsl, RenderParseRoundTrip) {
  DiagnosisGraph g;
  load_knowledge_library(g);
  std::string text = render_dsl(g);
  DiagnosisGraph g2;
  load_dsl(text, g2);
  EXPECT_EQ(g2.events().size(), g.events().size());
  ASSERT_EQ(g2.rules().size(), g.rules().size());
  for (std::size_t i = 0; i < g.rules().size(); ++i) {
    EXPECT_EQ(g2.rules()[i].symptom, g.rules()[i].symptom);
    EXPECT_EQ(g2.rules()[i].diagnostic, g.rules()[i].diagnostic);
    EXPECT_EQ(g2.rules()[i].priority, g.rules()[i].priority);
    EXPECT_EQ(g2.rules()[i].temporal, g.rules()[i].temporal);
    EXPECT_EQ(g2.rules()[i].join_level, g.rules()[i].join_level);
  }
}

TEST(RuleDsl, KnowledgeLibraryScale) {
  // The paper cites 200+ events and 300+ rules in production; our library
  // reproduces the published Tables I and II.
  DiagnosisGraph g;
  load_knowledge_library(g);
  EXPECT_GE(g.events().size(), 24u);
  EXPECT_GE(g.rules().size(), 30u);
}

TEST(RuleDsl, ApplicationsComposeWithLibrary) {
  DiagnosisGraph g;
  load_knowledge_library(g);
  // Applications may redefine a library event (§II-A).
  load_dsl(R"(
event link-congestion {
  location interface
  source snmp
  desc ">= 90% link utilization"
}
)",
           g);
  EXPECT_EQ(g.event("link-congestion").description,
            ">= 90% link utilization");
}

}  // namespace
}  // namespace grca::core
