// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// The benchmark's own measurement arithmetic: an in-memory span recorder
// (spans are kept until the benchmark ends, then written as JSONL in the
// `grca --span-log` format plus id/parent/run), per-span self time,
// percentiles with the "highest percentile that has at least ten samples
// beyond it" rule, and the open-loop pacing used by the streaming workload.
// Nothing here depends on the program under test.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

// ---- Percentiles ------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of 50, 90, 99, 99.9, 99.99 that leaves at least `min_beyond`
/// samples beyond it among n samples; 0 when even the median does not.
double highest_reportable_percentile(std::size_t n,
                                     std::size_t min_beyond = 10);

double median(std::vector<double> samples);

/// Times one run of fixed work that does not call the program: sorting,
/// hashing and map-inserting 8 MB of seeded integers (~0.1 s). Run between
/// the timed jobs, its median is the host's speed at the time; a job time
/// divided by it ("ref" units) cancels most of the host's slow speed drift.
double reference_seconds();

// ---- Spans ------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // since the recorder's epoch
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;  // -1 for a root span
  int run = 0;
};

/// Single-threaded span recorder: begin/end nest on a stack, so a span's
/// parent is the innermost span open when it began.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Spans opened from now on carry this run id.
  void set_run(int run) noexcept { run_ = run; }
  int begin(std::string name);
  void end(int id);
  /// Records a span whose interval is already known (tests).
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = -1);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::int64_t now_ns() const;

  /// One JSON object per line: span, start_us, dur_us (the keys `grca
  /// spans` converts to a Chrome trace) plus id, parent and run.
  void write_jsonl(std::ostream& out) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

/// RAII span on a recorder; a null recorder makes it a no-op.
class Scope {
 public:
  Scope(SpanRecorder* rec, std::string name)
      : rec_(rec), id_(rec ? rec->begin(std::move(name)) : -1) {}
  ~Scope() {
    if (rec_) rec_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Self time of every span, in ns: its duration minus the part of its
/// interval covered by the union of its direct children (children are
/// clipped to the parent, overlaps counted once). Indexed like `spans`.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Self time summed per span name, in seconds, over spans with the given
/// run id (every run when run < 0).
std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans, int run = -1);

/// Share of the root spans' total duration not covered by any child span
/// (0 when there is no root span).
double unaccounted_fraction(const std::vector<Span>& spans, int run = -1);

// ---- Open-loop pacing -------------------------------------------------------

/// Maps stream (sim) time onto the wall-clock instant it is due to be sent:
/// due(sim) = (sim - sim0) / rate seconds after the loop's start. A rate of
/// 0 means closed loop: everything is due at once and nothing waits.
struct Schedule {
  std::int64_t sim0 = 0;
  double rate = 0.0;  // sim seconds per wall second

  double due_s(std::int64_t sim) const noexcept {
    return rate > 0.0 ? static_cast<double>(sim - sim0) / rate : 0.0;
  }
};

/// A wall clock the pacer reads and waits on, in seconds since the loop's
/// start. The benchmark spins on steady_clock; tests inject a fake clock.
class LoopClock {
 public:
  virtual ~LoopClock() = default;
  virtual double now_s() = 0;
  virtual void wait_until_s(double t) = 0;
};

class SteadyLoopClock final : public LoopClock {
 public:
  SteadyLoopClock() : t0_(std::chrono::steady_clock::now()) {}
  double now_s() override {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }
  /// Spins: the load thread has nothing else to do, and a sleep would
  /// oversleep by more than a 300 s tick lasts at 300,000x.
  void wait_until_s(double t) override {
    while (now_s() < t) {
    }
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// What one open- or closed-loop pass measured.
struct LoopStats {
  std::size_t offered = 0;         // records handed to ingest
  std::size_t ticks = 0;           // advance calls, drain included
  std::size_t verdicts = 0;        // diagnoses returned
  double wall_s = 0.0;             // first send to the return of drain
  /// One sample per returned diagnosis: return of the advance/drain that
  /// produced it minus the instant that tick was due, in ms.
  std::vector<double> verdict_latency_ms;
  /// One sample per send: actual send instant minus due instant, in ms.
  std::vector<double> generator_lag_ms;
};

/// Drives one pass: items are (arrival sim time) in send order; before the
/// first item arriving at or after the next tick boundary, the tick is
/// waited for and `advance(tick)` called (it returns the number of verdicts
/// it produced); then the item is waited for and `ingest(i)` called. After
/// the last item `drain()` runs, due at the last arrival. Due times come from
/// the fixed schedule, so a stalled call makes every later call late.
template <class Ingest, class Advance, class Drain>
LoopStats drive_loop(const std::vector<std::int64_t>& arrivals,
                     std::int64_t tick, const Schedule& schedule,
                     LoopClock& clock, Ingest&& ingest, Advance&& advance,
                     Drain&& drain) {
  LoopStats stats;
  const bool open = schedule.rate > 0.0;
  auto record_verdicts = [&](std::size_t n, double due) {
    double late_ms = (clock.now_s() - due) * 1e3;
    for (std::size_t k = 0; k < n; ++k) {
      stats.verdict_latency_ms.push_back(late_ms);
    }
    stats.verdicts += n;
    ++stats.ticks;
  };
  const double start = clock.now_s();
  std::int64_t next_tick = schedule.sim0 + tick;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    while (arrivals[i] >= next_tick) {
      double due = open ? schedule.due_s(next_tick) : clock.now_s();
      if (open) clock.wait_until_s(due);
      record_verdicts(advance(next_tick), due);
      next_tick += tick;
    }
    if (open) {
      double due = schedule.due_s(arrivals[i]);
      clock.wait_until_s(due);
      stats.generator_lag_ms.push_back((clock.now_s() - due) * 1e3);
    }
    ingest(i);
    ++stats.offered;
  }
  double due = open && !arrivals.empty() ? schedule.due_s(arrivals.back())
                                         : clock.now_s();
  record_verdicts(drain(), due);
  stats.wall_s = clock.now_s() - start;
  return stats;
}

}  // namespace perfbench
