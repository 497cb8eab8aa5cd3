// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Raw telemetry records, as emitted by devices and management systems.
//
// The paper's Data Collector ingests ~600 heterogeneous sources: syslog,
// SNMP, layer-1 device logs, TACACS command logs, OSPF and BGP route
// monitors, end-to-end performance monitors, CDN server logs and workflow
// logs (§II-A). Each source has its own naming convention and its own
// timestamp convention — syslog stamps device-local wall-clock time, the
// monitors stamp UTC. The RawRecord type deliberately preserves those
// quirks; normalization is the *collector's* job, not the emitter's.
#pragma once

#include <string>
#include <vector>

#include "telemetry/attrs.h"
#include "util/symbol.h"
#include "util/time.h"

namespace grca::telemetry {

enum class SourceType {
  kSyslog,       // router syslog (device-local time, UPPERCASE router names)
  kSnmp,         // 5-minute SNMP poller (UTC, fqdn-style names)
  kLayer1Log,    // SONET / optical-mesh device logs (device-local time)
  kTacacs,       // router command logs (UTC, lowercase router names)
  kOspfMon,      // OSPFMon route monitor (UTC)
  kBgpMon,       // BGP route monitor (UTC)
  kPerfMon,      // inter-PoP active probing (UTC)
  kCdnMon,       // CDN end-to-end agent measurements (UTC)
  kServerLog,    // CDN server logs (UTC)
  kWorkflowLog,  // provisioning / maintenance workflow systems (UTC)
};

std::string_view to_string(SourceType type) noexcept;

/// One raw record. Interpretation of the fields varies by source:
///  - syslog:      device = "NYC-PER1" (uppercase), body = the %FAC-SEV-TAG
///                 message, timestamp = device-local time.
///  - snmp:        device = "nyc-per1.net.example" (fqdn), field = object
///                 name (e.g. "cpu5min", "ifutil"), value = reading,
///                 timestamp = UTC at interval *end*, attrs["interface"].
///  - layer1:      device = ADM/OXC name, body = restoration message
///                 containing the circuit id, timestamp = device-local time.
///  - tacacs:      device = router, attrs["user"], body = command text.
///  - ospfmon:     attrs["router"], attrs["interface"], value = new metric.
///  - bgpmon:      attrs["prefix"], attrs["egress"], body = announce|withdraw.
///  - perfmon:     attrs["ingress"], attrs["egress"] (PoP names), field =
///                 metric ("loss","delay","tput"), value = reading.
///  - cdnmon:      attrs["node"], attrs["client"] (client IP), field =
///                 metric ("rtt","tput"), value = reading.
///  - serverlog:   attrs["node"], attrs["server"], field = "load".
///  - workflowlog: device = router, field = activity type.
/// Names are interned (util::Symbol); the body is free text and is not, so
/// the symbol table stays bounded by the network's vocabulary.
struct RawRecord {
  SourceType source = SourceType::kSyslog;
  util::Symbol device;
  util::TimeSec timestamp = 0;  // in the convention of the source (see above)
  util::Symbol field;
  std::string body;
  double value = 0.0;
  Attrs attrs;

  /// True emission instant in UTC. Carried for generator-side ordering and
  /// for test assertions ONLY — the collector must never read it (it has to
  /// reconstruct UTC from the source's timezone convention, as the real
  /// platform does).
  util::TimeSec true_utc = 0;
};

/// A batch of records ordered by true emission time.
using RecordStream = std::vector<RawRecord>;

/// Stable sort by true emission instant (generator-side helper).
void sort_stream(RecordStream& stream);

// ---- Syslog message vocabulary ---------------------------------------------
// Cisco-IOS-style message bodies used by the simulator and recognized by the
// collector's parsers. Keeping them in one place ties emitter and parser
// together without either including the other.

namespace msg {

std::string link_updown(const std::string& iface, bool up);
std::string lineproto_updown(const std::string& iface, bool up);
std::string bgp_adjchange(const std::string& neighbor_ip, bool up,
                          const std::string& reason);
/// code 4/0 = hold timer expired (sent); 6/4 = administrative reset (recvd).
std::string bgp_notification(const std::string& neighbor_ip, bool sent,
                             const std::string& code,
                             const std::string& reason);
std::string sys_restart();
std::string cpu_threshold(int percent);
std::string pim_nbrchg(const std::string& neighbor_ip, const std::string& vpn,
                       bool up);
std::string linecard_crash(int slot);

}  // namespace msg

}  // namespace grca::telemetry
