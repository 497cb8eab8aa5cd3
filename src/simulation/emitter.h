// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// TelemetryEmitter: produces RawRecords exactly the way each management
// system would — with that source's naming convention and timestamp
// convention. All the quirks the Data Collector has to normalize (paper
// §II-A) are introduced here, deliberately:
//   - syslog spells router names UPPERCASE and stamps device-local time;
//   - SNMP uses "<router>.net.example" FQDNs and UTC interval-end stamps;
//   - layer-1 logs use transport-device names and device-local time;
//   - TACACS and the route monitors use lowercase names and UTC.
#pragma once

#include "routing/bgp.h"
#include "routing/ospf.h"
#include "telemetry/records.h"
#include "topology/network.h"

namespace grca::sim {

class TelemetryEmitter {
 public:
  explicit TelemetryEmitter(const topology::Network& net) : net_(net) {}

  /// Router syslog line at UTC instant `utc` (recorded in local time).
  void syslog(topology::RouterId router, util::TimeSec utc, std::string body);

  /// SNMP reading for a router-level object ("cpu5min").
  void snmp_router(topology::RouterId router, util::TimeSec interval_end_utc,
                   std::string object, double value);

  /// SNMP reading for an interface-level object ("ifutil", "ifcorrupt").
  void snmp_interface(topology::InterfaceId iface,
                      util::TimeSec interval_end_utc, std::string object,
                      double value);

  /// Layer-1 device log line (restoration events etc.).
  void layer1(topology::Layer1DeviceId device, util::TimeSec utc,
              std::string body);

  /// TACACS command log entry.
  void tacacs(topology::RouterId router, util::TimeSec utc, std::string user,
              std::string command);

  /// OSPFMon observation of a metric change LSA. kDown / kCostedOut pass
  /// through as their numeric sentinels.
  void ospfmon(topology::LogicalLinkId link, util::TimeSec utc, int new_metric);

  /// BGP monitor observation of an announce/withdraw at a reflector.
  void bgpmon(const routing::BgpRoute& route, util::TimeSec utc, bool announce);

  /// Inter-PoP active probe reading ("loss" %, "delay" ms, "tput" Mb/s).
  void perf(topology::PopId ingress, topology::PopId egress, util::TimeSec utc,
            std::string metric, double value);

  /// CDN agent measurement toward a node ("rtt" ms, "tput" Mb/s).
  void cdn(topology::CdnNodeId node, util::Ipv4Addr client, util::TimeSec utc,
           std::string metric, double value);

  /// CDN server log reading (load average on one server of a node).
  void server_load(topology::CdnNodeId node, int server, util::TimeSec utc,
                   double load);

  /// CDN assignment-policy change record (server-side management log).
  void cdn_policy(topology::CdnNodeId node, util::TimeSec utc);

  /// Workflow system activity record.
  void workflow(topology::RouterId router, util::TimeSec utc,
                std::string activity);

  telemetry::RecordStream take() {
    telemetry::sort_stream(stream_);
    return std::move(stream_);
  }

  const topology::Network& network() const noexcept { return net_; }

 private:
  const util::TimeZone& router_zone(topology::RouterId router) const {
    return net_.pop(net_.router(router).pop).timezone;
  }
  void attr(telemetry::RawRecord& r, std::string_view key,
            std::string_view value) {
    r.attrs[util::Symbol(key)] = util::Symbol(value);
  }

  const topology::Network& net_;
  telemetry::RecordStream stream_;
};

}  // namespace grca::sim
