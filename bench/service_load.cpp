// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Service-plane load gate: replays a BGP study through StreamingRca twice —
// once quiescent, once while >= 1k concurrent keep-alive HTTP connections
// hammer the query API and the Prometheus scrape — and hard-gates on
//  (a) ingest-latency isolation: the loaded per-tick advance+publish p99
//      must stay under an absolute bound and a multiple of the quiescent
//      p99 (the snapshot/freeze design means scrapes never block ingest),
//  (b) verdict identity: every /api/* body served under full load equals
//      the quiescent replay's bytes, and the bytes read off a live socket
//      equal ServicePlane::handle for the same snapshot, and
//  (c) sustained throughput: queries/s across the load phase.
// Reports JSON (default BENCH_service.json) for tools/bench_diff.py.

#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/bgp_flap_app.h"
#include "apps/streaming.h"
#include "bench/bench_util.h"
#include "net/socket.h"
#include "service/service_plane.h"
#include "simulation/workloads.h"

namespace {

using namespace grca;
using util::TimeSec;

constexpr TimeSec kTick = 300;
// Loaded ingest p99 must stay under both bounds; generous because CI
// runners share cores between the ingest thread and the client herd.
constexpr double kMaxDegradationMultiplier = 25.0;
constexpr double kMaxLoadedP99Us = 250'000.0;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
}

/// Replays the study through a fresh StreamingRca, publishing every tick
/// into `plane`. Returns per-tick advance+publish latencies (microseconds).
std::vector<double> replay(const topology::Network& rca_net,
                           const sim::StudyOutput& study,
                           service::ServicePlane& plane,
                           std::size_t& diagnosed) {
  apps::StreamingOptions options;
  options.freeze_horizon = 900;
  options.settle = 400;
  options.extract.flap_pair_window = 600;
  apps::StreamingRca stream(rca_net, apps::bgp::build_graph(), options);
  std::vector<double> latencies_us;
  diagnosed = 0;
  TimeSec tick = study.records.front().true_utc;
  for (const telemetry::RawRecord& r : study.records) {
    while (r.true_utc >= tick) {
      auto t0 = std::chrono::steady_clock::now();
      std::vector<core::Diagnosis> batch = stream.advance(tick);
      plane.add_diagnoses(batch);
      plane.publish(tick);
      latencies_us.push_back(seconds_since(t0) * 1e6);
      diagnosed += batch.size();
      tick += kTick;
    }
    stream.ingest(r);
  }
  std::vector<core::Diagnosis> tail = stream.drain();
  plane.add_diagnoses(tail);
  plane.publish(tick);
  diagnosed += tail.size();
  return latencies_us;
}

/// One keep-alive request on a blocking socket; returns false on any
/// protocol hiccup (short read, closed connection).
bool roundtrip(int fd, const std::string& path) {
  std::string raw = "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n";
  if (::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(raw.size())) {
    return false;
  }
  std::string data;
  char buf[16 * 1024];
  std::size_t body_start = std::string::npos;
  std::size_t content_length = 0;
  for (;;) {
    if (body_start == std::string::npos) {
      std::size_t head_end = data.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        body_start = head_end + 4;
        std::size_t cl = data.find("Content-Length: ");
        if (cl == std::string::npos || cl > head_end) return false;
        content_length = std::stoull(data.substr(cl + 16));
      }
    }
    if (body_start != std::string::npos &&
        data.size() - body_start >= content_length) {
      return true;
    }
    ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return false;
    data.append(buf, static_cast<std::size_t>(n));
  }
}

/// Full response body read on a fresh blocking connection (identity check).
std::string fetch_body(std::uint16_t port, const std::string& path) {
  net::Fd fd = net::connect_loopback(port);
  std::string raw = "GET " + path + " HTTP/1.0\r\nHost: bench\r\n\r\n";
  if (::send(fd.get(), raw.data(), raw.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(raw.size())) {
    return {};
  }
  std::string data;
  char buf[16 * 1024];
  for (;;) {
    ssize_t n = ::recv(fd.get(), buf, sizeof buf, 0);
    if (n <= 0) break;
    data.append(buf, static_cast<std::size_t>(n));
  }
  std::size_t head_end = data.find("\r\n\r\n");
  return head_end == std::string::npos ? std::string() : data.substr(head_end + 4);
}

void raise_fd_limit(std::size_t need) {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  if (lim.rlim_cur >= need) return;
  lim.rlim_cur = std::min<rlim_t>(std::max<rlim_t>(need, lim.rlim_cur),
                                  lim.rlim_max);
  setrlimit(RLIMIT_NOFILE, &lim);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_file = "BENCH_service.json";
  std::size_t connections = 1024;
  std::size_t client_threads = 4;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) out_file = argv[i + 1];
    if (arg.rfind("--out=", 0) == 0) out_file = arg.substr(6);
    if (arg == "--connections" && i + 1 < argc) {
      connections = std::stoull(argv[i + 1]);
    }
    if (arg.rfind("--connections=", 0) == 0) {
      connections = std::stoull(arg.substr(14));
    }
  }
  // 1k client sockets + their server-side peers live in this one process.
  raise_fd_limit(2 * connections + 512);

  bench::World world(bench::bench_params(argc, argv));
  sim::BgpStudyParams params;
  params.days = 7;
  params.target_symptoms = 500;
  sim::StudyOutput study = sim::run_bgp_study(world.sim_net, params);
  std::printf("replaying %zu records over %d days at %lld-second ticks\n",
              study.records.size(), params.days,
              static_cast<long long>(kTick));

  const std::vector<std::string> kPaths = {
      "/api/breakdown", "/api/trending", "/api/health",
      "/api/drilldown/unknown", "/metrics"};

  // Phase 1: quiescent replay — the ingest-latency reference.
  service::ServicePlane quiet;
  std::size_t diagnosed_quiet = 0;
  std::vector<double> lat_quiet =
      replay(world.rca_net, study, quiet, diagnosed_quiet);
  double p99_quiet = percentile(lat_quiet, 0.99);
  std::printf("quiescent: %zu ticks, %zu diagnoses, advance p50 %.0f us, "
              "p99 %.0f us\n",
              lat_quiet.size(), diagnosed_quiet,
              percentile(lat_quiet, 0.50), p99_quiet);

  // Phase 2: the same replay under >= 1k concurrent scrapers.
  service::ServicePlaneOptions plane_options;
  plane_options.http_threads = 2;
  service::ServicePlane loaded(plane_options);
  loaded.publish(0);  // non-empty snapshot pointer before clients arrive
  loaded.start();

  std::vector<net::Fd> sockets;
  sockets.reserve(connections);
  for (std::size_t i = 0; i < connections; ++i) {
    sockets.push_back(net::connect_loopback(loaded.port()));
  }
  // Every connection proves itself live with one served request up front,
  // so "N concurrent connections" means N established AND answered, not N
  // accepted-and-parked.
  bool warmup_ok = true;
  for (std::size_t i = 0; i < sockets.size(); ++i) {
    warmup_ok = roundtrip(sockets[i].get(), kPaths[i % kPaths.size()]) &&
                warmup_ok;
  }
  std::printf("%zu keep-alive connections established and served\n",
              sockets.size());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> clients;
  std::size_t per_thread = (sockets.size() + client_threads - 1) / client_threads;
  for (std::size_t c = 0; c < client_threads; ++c) {
    std::size_t begin = c * per_thread;
    std::size_t end = std::min(sockets.size(), begin + per_thread);
    if (begin >= end) break;
    clients.emplace_back([&, begin, end] {
      std::size_t i = begin;
      std::size_t p = begin;
      while (!stop.load(std::memory_order_relaxed)) {
        if (roundtrip(sockets[i].get(), kPaths[p % kPaths.size()])) {
          requests.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;  // a broken socket under load is a gate failure
        }
        ++p;
        if (++i == end) i = begin;
      }
    });
  }

  auto load0 = std::chrono::steady_clock::now();
  std::size_t diagnosed_loaded = 0;
  std::vector<double> lat_loaded =
      replay(world.rca_net, study, loaded, diagnosed_loaded);
  double load_wall_s = seconds_since(load0);
  stop.store(true);
  for (std::thread& t : clients) t.join();
  double p99_loaded = percentile(lat_loaded, 0.99);
  double queries_per_s = static_cast<double>(requests.load()) / load_wall_s;
  std::printf("loaded: %zu diagnoses, advance p50 %.0f us, p99 %.0f us; "
              "%llu queries in %.1f s (%.0f/s), %llu failures\n",
              diagnosed_loaded, percentile(lat_loaded, 0.50), p99_loaded,
              static_cast<unsigned long long>(requests.load()), load_wall_s,
              queries_per_s,
              static_cast<unsigned long long>(failures.load()));

  // Identity gates: loaded replay == quiescent replay byte for byte, and a
  // live socket serves exactly ServicePlane::handle's bytes.
  bool identical = true;
  for (const std::string& path : kPaths) {
    if (path == "/metrics") continue;  // live process counters, not verdicts
    if (loaded.get(path) != quiet.get(path)) {
      identical = false;
      std::printf("MISMATCH loaded-vs-quiescent: %s\n", path.c_str());
    }
    if (fetch_body(loaded.port(), path) != loaded.get(path)) {
      identical = false;
      std::printf("MISMATCH socket-vs-handle: %s\n", path.c_str());
    }
  }
  loaded.stop();
  sockets.clear();

  bool connections_ok = warmup_ok && failures.load() == 0 &&
                        connections >= 1000;
  bool latency_ok =
      p99_loaded <= kMaxLoadedP99Us &&
      p99_loaded <= std::max(kMaxDegradationMultiplier * p99_quiet, 20'000.0);
  bool ok = connections_ok && latency_ok && identical &&
            diagnosed_loaded == diagnosed_quiet;

  std::ofstream out(out_file);
  out << "{\n"
      << "  \"hardware_threads\": " << util::hardware_threads() << ",\n"
      << "  \"connections\": " << connections << ",\n"
      << "  \"queries_per_s\": " << static_cast<std::uint64_t>(queries_per_s)
      << ",\n"
      << "  \"ingest_p99_unloaded_us\": " << static_cast<std::uint64_t>(p99_quiet)
      << ",\n"
      << "  \"ingest_p99_loaded_us\": " << static_cast<std::uint64_t>(p99_loaded)
      << ",\n"
      << "  \"connections_1k_sustained\": "
      << (connections_ok ? "true" : "false") << ",\n"
      << "  \"ingest_p99_within_bound\": " << (latency_ok ? "true" : "false")
      << ",\n"
      << "  \"api_identical_under_load\": " << (identical ? "true" : "false")
      << "\n}\n";
  out.close();
  std::printf("report written to %s\n", out_file.c_str());
  if (!ok) std::printf("SERVICE LOAD GATE FAILED\n");
  return ok ? 0 : 1;
}
