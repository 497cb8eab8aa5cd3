// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

// ---- Percentiles ------------------------------------------------------------

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  // ceil(p/100 * n), computed in integers where possible so 99% of 1000 is
  // exactly rank 990.
  double exact = p / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double highest_reportable_percentile(std::size_t n, std::size_t min_beyond) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (double p : kLadder) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return 0.0;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double reference_seconds() {
  static const std::vector<std::uint64_t> input = [] {
    std::vector<std::uint64_t> v(1 << 20);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = x;
    }
    return v;
  }();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> v = input;
  std::sort(v.begin(), v.end());
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::uint64_t e : v) h = (h ^ e) * 0x100000001B3ull;
  std::map<std::uint64_t, std::size_t> m;
  for (std::size_t i = 0; i < v.size(); i += 8) m.emplace(v[i] ^ h, i);
  const auto t1 = std::chrono::steady_clock::now();
  // The map's size depends on every step, so none of them can be elided.
  if (m.size() > v.size()) std::abort();
  return std::chrono::duration<double>(t1 - t0).count();
}

// ---- Spans ------------------------------------------------------------------

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::begin(std::string name) {
  int id = static_cast<int>(spans_.size());
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), now_ns(), 0, id, parent, run_});
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close in LIFO order under RAII; tolerate an out-of-order end.
  auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it);
}

int SpanRecorder::add(std::string name, std::int64_t start_ns,
                      std::int64_t end_ns, int parent) {
  int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), start_ns, end_ns, id, parent, run_});
  return id;
}

void SpanRecorder::write_jsonl(std::ostream& out) const {
  char line[320];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"span\":\"%s\",\"start_us\":%lld,\"dur_us\":%lld,"
                  "\"id\":%d,\"parent\":%d,\"run\":%d}\n",
                  s.name.c_str(), static_cast<long long>(s.start_ns / 1000),
                  static_cast<long long>((s.end_ns - s.start_ns) / 1000), s.id,
                  s.parent, s.run);
    out << line;
  }
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    std::int64_t a = std::max(s.start_ns, p.start_ns);
    std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) children[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0, cur_b = 0;
    bool have = false;
    for (const auto& [a, b] : iv) {
      if (have && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (have) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      have = true;
    }
    if (have) covered += cur_b - cur_a;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans, int run) {
  std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (run >= 0 && spans[i].run != run) continue;
    out[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

double unaccounted_fraction(const std::vector<Span>& spans, int run) {
  std::vector<std::int64_t> self = self_times_ns(spans);
  std::int64_t total = 0, uncovered = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0 || (run >= 0 && spans[i].run != run)) continue;
    total += spans[i].end_ns - spans[i].start_ns;
    uncovered += self[i];
  }
  return total > 0 ? static_cast<double>(uncovered) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace perfbench
