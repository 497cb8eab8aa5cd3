// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "simulation/emitter.h"

#include <cctype>

namespace grca::sim {
namespace {

std::string upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

using telemetry::RawRecord;
using telemetry::SourceType;

void TelemetryEmitter::syslog(topology::RouterId router, util::TimeSec utc,
                              std::string body) {
  RawRecord r;
  r.source = SourceType::kSyslog;
  r.device = util::Symbol(upper(net_.router(router).name));
  r.timestamp = router_zone(router).from_utc(utc);  // local wall-clock
  r.body = std::move(body);
  r.true_utc = utc;
  stream_.push_back(std::move(r));
}

void TelemetryEmitter::snmp_router(topology::RouterId router,
                                   util::TimeSec interval_end_utc,
                                   std::string object, double value) {
  RawRecord r;
  r.source = SourceType::kSnmp;
  r.device = util::Symbol(net_.router(router).name + ".net.example");
  r.timestamp = interval_end_utc;
  r.field = util::Symbol(object);
  r.value = value;
  r.true_utc = interval_end_utc;
  stream_.push_back(std::move(r));
}

void TelemetryEmitter::snmp_interface(topology::InterfaceId iface,
                                      util::TimeSec interval_end_utc,
                                      std::string object, double value) {
  const topology::Interface& ifc = net_.interface(iface);
  RawRecord r;
  r.source = SourceType::kSnmp;
  r.device = util::Symbol(net_.router(ifc.router).name + ".net.example");
  r.timestamp = interval_end_utc;
  r.field = util::Symbol(object);
  r.value = value;
  attr(r, "interface", ifc.name);
  r.true_utc = interval_end_utc;
  stream_.push_back(std::move(r));
}

void TelemetryEmitter::layer1(topology::Layer1DeviceId device,
                              util::TimeSec utc, std::string body) {
  const topology::Layer1Device& dev = net_.layer1_device(device);
  RawRecord r;
  r.source = SourceType::kLayer1Log;
  r.device = util::Symbol(dev.name);
  r.timestamp = net_.pop(dev.pop).timezone.from_utc(utc);  // local wall-clock
  r.body = std::move(body);
  r.true_utc = utc;
  stream_.push_back(std::move(r));
}

void TelemetryEmitter::tacacs(topology::RouterId router, util::TimeSec utc,
                              std::string user, std::string command) {
  RawRecord r;
  r.source = SourceType::kTacacs;
  r.device = util::Symbol(net_.router(router).name);
  r.timestamp = utc;
  attr(r, "user", user);
  r.body = std::move(command);
  r.true_utc = utc;
  stream_.push_back(std::move(r));
}

void TelemetryEmitter::ospfmon(topology::LogicalLinkId link, util::TimeSec utc,
                               int new_metric) {
  const topology::LogicalLink& l = net_.link(link);
  const topology::Interface& a = net_.interface(l.side_a);
  RawRecord r;
  r.source = SourceType::kOspfMon;
  r.timestamp = utc;
  attr(r, "router", net_.router(a.router).name);
  attr(r, "interface", a.name);
  r.value = new_metric;
  r.true_utc = utc;
  stream_.push_back(std::move(r));
}

void TelemetryEmitter::bgpmon(const routing::BgpRoute& route, util::TimeSec utc,
                              bool announce) {
  RawRecord r;
  r.source = SourceType::kBgpMon;
  r.timestamp = utc;
  r.body = announce ? "announce" : "withdraw";
  r.attrs.reserve(6);
  attr(r, "prefix", route.prefix.to_string());
  attr(r, "egress", net_.router(route.egress).name);
  attr(r, "nexthop", route.next_hop.to_string());
  attr(r, "localpref", std::to_string(route.local_pref));
  attr(r, "aspathlen", std::to_string(route.as_path_len));
  attr(r, "med", std::to_string(route.med));
  r.true_utc = utc;
  stream_.push_back(std::move(r));
}

void TelemetryEmitter::perf(topology::PopId ingress, topology::PopId egress,
                            util::TimeSec utc, std::string metric,
                            double value) {
  RawRecord r;
  r.source = SourceType::kPerfMon;
  r.timestamp = utc;
  r.field = util::Symbol(metric);
  r.value = value;
  attr(r, "ingress", net_.pop(ingress).name);
  attr(r, "egress", net_.pop(egress).name);
  r.true_utc = utc;
  stream_.push_back(std::move(r));
}

void TelemetryEmitter::cdn(topology::CdnNodeId node, util::Ipv4Addr client,
                           util::TimeSec utc, std::string metric,
                           double value) {
  RawRecord r;
  r.source = SourceType::kCdnMon;
  r.timestamp = utc;
  r.field = util::Symbol(metric);
  r.value = value;
  attr(r, "node", net_.cdn_node(node).name);
  attr(r, "client", client.to_string());
  r.true_utc = utc;
  stream_.push_back(std::move(r));
}

void TelemetryEmitter::server_load(topology::CdnNodeId node, int server,
                                   util::TimeSec utc, double load) {
  RawRecord r;
  r.source = SourceType::kServerLog;
  r.timestamp = utc;
  r.field = util::Symbol("load");
  r.value = load;
  attr(r, "node", net_.cdn_node(node).name);
  attr(r, "server", std::to_string(server));
  r.true_utc = utc;
  stream_.push_back(std::move(r));
}

void TelemetryEmitter::cdn_policy(topology::CdnNodeId node, util::TimeSec utc) {
  RawRecord r;
  r.source = SourceType::kServerLog;
  r.timestamp = utc;
  r.field = util::Symbol("policy-change");
  r.value = 1.0;
  attr(r, "node", net_.cdn_node(node).name);
  r.true_utc = utc;
  stream_.push_back(std::move(r));
}

void TelemetryEmitter::workflow(topology::RouterId router, util::TimeSec utc,
                                std::string activity) {
  RawRecord r;
  r.source = SourceType::kWorkflowLog;
  r.device = util::Symbol(net_.router(router).name);
  r.timestamp = utc;
  r.field = util::Symbol(activity);
  r.true_utc = utc;
  stream_.push_back(std::move(r));
}

}  // namespace grca::sim
