// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Real-time monitoring example (§VI future work): replays a week of
// telemetry through the StreamingRca pipeline and prints diagnoses as they
// are emitted, like a live operations console — plus a trend alert when the
// daily symptom rate shifts (the "behavioral change after a software
// upgrade" story of §III-A.2, simulated as a line-card slowly going bad and
// flapping its ports at an increasing rate in the second half of the week).

#include <cstdio>

#include "apps/bgp_flap_app.h"
#include "apps/streaming.h"
#include "core/trending.h"
#include "obs/feed_health.h"
#include "service/shutdown.h"
#include "simulation/scenario.h"
#include "topology/config.h"
#include "topology/topo_gen.h"

int main() {
  using namespace grca;
  topology::TopoParams tp;
  tp.pops = 6;
  tp.pers_per_pop = 4;
  topology::Network sim_net = topology::generate_isp(tp);
  topology::Network rca_net = topology::build_network_from_configs(
      topology::render_all_configs(sim_net),
      topology::render_layer1_inventory(sim_net));

  // Two weeks: a steady background of flaps, then a misbehaving router
  // doubles the rate in week two.
  util::TimeSec start = util::make_utc(2010, 4, 1);
  routing::OspfSim ospf(sim_net);
  routing::BgpSim bgp(ospf);
  routing::seed_customer_routes(bgp, sim_net, start - util::kDay);
  sim::ScenarioEngine scenario(sim_net, ospf, bgp, 41);
  util::Rng& rng = scenario.rng();
  for (int day = 0; day < 14; ++day) {
    int flaps = day < 7 ? 12 : 34;  // the regression ships on day 7
    for (int i = 0; i < flaps; ++i) {
      topology::CustomerSiteId site(static_cast<std::uint32_t>(
          rng.below(sim_net.customers().size())));
      scenario.customer_interface_flap(
          site, start + day * util::kDay + rng.range(0, 86000));
    }
  }
  telemetry::RecordStream records = scenario.take_records();

  apps::StreamingOptions options;
  options.freeze_horizon = 900;
  options.settle = 400;
  options.extract.flap_pair_window = 600;
  apps::StreamingRca stream(rca_net, apps::bgp::build_graph(), options);

  // Like the production console: one feed-health line per (simulated) day —
  // is the data still flowing, how far behind is it, did we drop anything?
  auto print_health = [&](util::TimeSec now) {
    std::printf("[%s] feed health:", util::format_utc(now).c_str());
    for (const obs::FeedHealthMonitor::Status& s :
         stream.feed_health().status()) {
      std::string name(telemetry::to_string(s.source));
      std::printf(" %s=%llu(lag %.0fs%s)", name.c_str(),
                  static_cast<unsigned long long>(s.records), s.mean_lag,
                  s.silent ? ", SILENT" : "");
    }
    std::printf(" late-drops=%zu\n", stream.dropped_late());
  };

  // Ctrl-C / SIGTERM: stop feeding, drain what is buffered (every frozen
  // symptom still gets its diagnosis), print the summary, exit cleanly.
  service::ShutdownSignal::install();

  std::vector<core::Diagnosis> all;
  std::size_t printed = 0;
  util::TimeSec next_tick = records.front().true_utc;
  util::TimeSec next_health = next_tick + util::kDay;
  for (const telemetry::RawRecord& r : records) {
    if (service::ShutdownSignal::requested()) {
      std::printf("signal %d: draining stream\n",
                  service::ShutdownSignal::signal_number());
      break;
    }
    while (r.true_utc >= next_tick) {
      if (next_tick >= next_health) {
        print_health(next_tick);
        next_health += util::kDay;
      }
      for (core::Diagnosis& d : stream.advance(next_tick)) {
        // Print the first few like a console, then just count.
        if (printed < 5) {
          std::printf("[%s] %s at %s -> %s (latency %llds)\n",
                      util::format_utc(next_tick).c_str(),
                      d.symptom.name.c_str(), d.symptom.where.key().c_str(),
                      d.primary().c_str(),
                      static_cast<long long>(next_tick -
                                             d.symptom.when.start));
          ++printed;
        }
        all.push_back(std::move(d));
      }
      next_tick += 300;
    }
    stream.ingest(r);
  }
  for (core::Diagnosis& d : stream.drain()) all.push_back(std::move(d));
  print_health(next_tick);
  std::printf("... %zu diagnoses total (showing the first %zu live)\n\n",
              all.size(), printed);

  // The trend watchdog: did the flap rate shift?
  core::TrendSeries series = core::daily_counts(all, "interface-flap");
  std::printf("daily interface-flap-caused counts:");
  for (std::size_t count : series.daily) std::printf(" %zu", count);
  std::printf("\n");
  if (auto alert = core::detect_level_shift(series, 5, 3.0)) {
    std::printf(
        "\nTREND ALERT: interface-flap rate shifted %.1f -> %.1f per day on "
        "%s (score %.1f)\n-> investigate what changed that day (software "
        "upgrade? provisioning batch?)\n",
        alert->before_mean, alert->after_mean,
        util::format_utc(alert->day_utc).substr(0, 10).c_str(), alert->score);
    return 0;
  }
  std::printf("no behavioral change detected\n");
  return 1;
}
