// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Persistent event store gate: measures write-ahead append throughput,
// sealing into the columnar format, and the cold open (a full decode into
// an EventStore) plus windowed queries against rebuilding the in-memory
// store on the same corpus. Fails unless
//  (a) every windowed query answers byte-identically to the in-memory
//      reference, and
//  (b) cold open + querying beats rebuilding the in-memory store from
//      scratch — the point of persisting at all.
// Reports JSON (default BENCH_storage.json) for the CI artifact trail,
// including the windowed-query rate that tools/bench_diff.py gates against
// bench/baselines.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/event_store.h"
#include "storage/event_log.h"
#include "storage/persistent_store.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace grca;
using util::TimeSec;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

core::EventInstance synth_event(util::Rng& rng, TimeSec base, TimeSec span) {
  core::EventInstance e;
  e.name = "event-" + std::to_string(rng.below(40));
  e.when.start = base + rng.range(0, span);
  e.when.end = e.when.start + rng.range(0, 1800);
  e.where = core::Location::interface("r" + std::to_string(rng.below(400)),
                                      "ge-0/0/" + std::to_string(rng.below(16)));
  if (rng.chance(0.5)) {
    e.attrs["reason"] = "code-" + std::to_string(rng.below(32));
  }
  return e;
}

struct WindowQuery {
  std::string name;
  TimeSec from, to;
};

/// Runs the windowed-scan phase against one store; returns wall seconds.
double run_windowed(const core::EventStore& store,
                    const std::vector<WindowQuery>& queries,
                    std::size_t& hits) {
  std::vector<const core::EventInstance*> got;
  hits = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (const WindowQuery& q : queries) {
    store.query_into(q.name, q.from, q.to, got);
    hits += got.size();
  }
  return seconds_since(t0);
}

/// Re-runs the query list comparing `store` against the in-memory
/// reference field by field (untimed).
bool check_identical(const core::EventStore& store,
                     const core::EventStore& mem,
                     const std::vector<WindowQuery>& queries) {
  std::vector<const core::EventInstance*> got, want;
  for (const WindowQuery& q : queries) {
    store.query_into(q.name, q.from, q.to, got);
    mem.query_into(q.name, q.from, q.to, want);
    if (got.size() != want.size()) return false;
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (!(*got[k] == *want[k])) return false;
    }
  }
  return true;
}

std::uint64_t dir_bytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_file = "BENCH_storage.json";
  std::size_t count = 120'000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) out_file = argv[i + 1];
    if (arg.rfind("--out=", 0) == 0) out_file = arg.substr(6);
    if (arg == "--events" && i + 1 < argc) count = std::stoull(argv[i + 1]);
    if (arg.rfind("--events=", 0) == 0) count = std::stoull(arg.substr(9));
  }

  const TimeSec base = util::make_utc(2026, 5, 1);
  const TimeSec span = 7 * 24 * 3600;
  util::Rng rng(0xB357);
  std::vector<core::EventInstance> corpus;
  corpus.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    corpus.push_back(synth_event(rng, base, span));
  }
  const TimeSec watermark = base + span + 1;

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "grca-bench-storage";
  std::filesystem::remove_all(dir);

  // Write-ahead append throughput, then seal into the columnar segment.
  double append_s, seal_s;
  std::uint64_t bytes_appended;
  {
    storage::EventLogWriter writer(dir);
    auto t0 = std::chrono::steady_clock::now();
    for (const core::EventInstance& e : corpus) writer.append({&e, 1});
    append_s = seconds_since(t0);
    bytes_appended = writer.bytes_appended();
    t0 = std::chrono::steady_clock::now();
    writer.seal(watermark);
    seal_s = seconds_since(t0);
  }

  // In-memory reference: the cost a diagnosis run pays today to get a
  // queryable store from already-extracted events.
  auto t0 = std::chrono::steady_clock::now();
  core::EventStore mem;
  for (const core::EventInstance& e : corpus) mem.add(e);
  mem.warm();
  double build_s = seconds_since(t0);

  // The windowed-scan query list: narrow windows (the diagnosis
  // engine's shape — rule windows are minutes, not days) spread over the
  // whole span.
  constexpr int kWindowedQueries = 400;
  util::Rng qrng(0xC0FFEE);
  std::vector<WindowQuery> queries;
  queries.reserve(kWindowedQueries);
  for (int q = 0; q < kWindowedQueries; ++q) {
    WindowQuery w;
    w.name = "event-" + std::to_string(qrng.below(40));
    w.from = base + qrng.range(0, span);
    w.to = w.from + qrng.range(120, 900);
    queries.push_back(w);
  }

  // Cold open (every row decoded) + windowed scans.
  t0 = std::chrono::steady_clock::now();
  storage::PersistentEventStore disk =
      storage::PersistentEventStore::open(dir);
  double open_s = seconds_since(t0);
  std::size_t hits = 0;
  double windowed_s = run_windowed(disk, queries, hits);

  // Correctness: every query must answer byte-identically to the
  // in-memory reference, and the store must hold every event.
  bool identical = check_identical(disk, mem, queries) &&
                   disk.total_instances() == mem.total_instances();

  double cold_total_s = open_s + windowed_s;
  const bool faster = cold_total_s < build_s;
  std::uint64_t sealed_bytes = dir_bytes(dir);

  util::TextTable table({"Stage", "Wall (s)", "Rate"});
  table.add_row({"WAL append", util::format_double(append_s, 4),
                 util::format_double(count / append_s, 0) + " ev/s"});
  table.add_row({"seal (columnar)", util::format_double(seal_s, 4), "-"});
  table.add_row({"in-memory build+warm", util::format_double(build_s, 4), "-"});
  table.add_row({"cold open", util::format_double(open_s, 4), "-"});
  table.add_row({"windowed scans", util::format_double(windowed_s, 4),
                 util::format_double(kWindowedQueries / windowed_s, 0) +
                     " q/s"});
  std::fputs(
      table.render("persistent store scaling (" + std::to_string(count) +
                   " events)").c_str(),
      stdout);
  std::printf("query results vs in-memory: %s (%zu instances returned)\n",
              identical ? "byte-identical" : "DIVERGED", hits);

  {
    std::ofstream out(out_file);
    out << "{\n"
        << "  \"hardware_threads\": " << util::hardware_threads() << ",\n"
        << "  \"events\": " << count << ",\n"
        << "  \"bytes_appended\": " << bytes_appended << ",\n"
        << "  \"append_seconds\": " << append_s << ",\n"
        << "  \"append_events_per_s\": " << count / append_s << ",\n"
        << "  \"seal_seconds\": " << seal_s << ",\n"
        << "  \"v2_bytes\": " << sealed_bytes << ",\n"
        << "  \"mem_build_seconds\": " << build_s << ",\n"
        << "  \"cold_open_seconds\": " << open_s << ",\n"
        << "  \"windowed_queries\": " << kWindowedQueries << ",\n"
        << "  \"v2_windowed_seconds\": " << windowed_s << ",\n"
        << "  \"v2_windowed_queries_per_s\": "
        << kWindowedQueries / windowed_s << ",\n"
        << "  \"identical\": " << (identical ? "true" : "false") << ",\n"
        << "  \"cold_open_faster_than_rebuild\": "
        << (faster ? "true" : "false") << "\n"
        << "}\n";
    std::printf("report written to %s\n", out_file.c_str());
  }
  std::filesystem::remove_all(dir);
  bench::write_metrics_if_requested(argc, argv);
  if (!identical) std::fprintf(stderr, "FAIL: persistent queries diverged\n");
  if (!faster) {
    std::fprintf(stderr,
                 "FAIL: cold open + query (%.4fs) slower than in-memory "
                 "rebuild (%.4fs)\n",
                 cold_total_s, build_s);
  }
  return (identical && faster) ? 0 : 1;
}
