// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT

#include "collector/routing_rebuild.h"

#include "util/strings.h"

namespace grca::collector {

using telemetry::SourceType;

namespace {

const util::Symbol kPrefixKey("prefix");
const util::Symbol kEgressKey("egress");
const util::Symbol kNexthopKey("nexthop");
const util::Symbol kLocalPrefKey("localpref");
const util::Symbol kAsPathLenKey("aspathlen");
const util::Symbol kMedKey("med");

/// Reads an optional integer attr into `out`; false when it is malformed.
bool read_int(const telemetry::Attrs& attrs, util::Symbol key, int& out) {
  auto it = attrs.find(key);
  if (it == attrs.end()) return true;
  auto value = util::parse_number<int>(it->second.view());
  if (value) out = *value;
  return value.has_value();
}

}  // namespace

void RebuiltRouting::replay(std::span<const NormalizedRecord> records) {
  const topology::Network& net = ospf_.network();
  for (const NormalizedRecord& r : records) {
    if (r.source == SourceType::kOspfMon) {
      auto router = net.find_router(r.router.view());
      if (!router) {
        ++skipped_;
        continue;
      }
      auto iface = net.find_interface(*router, r.interface.view());
      if (!iface || !net.interface(*iface).link.valid()) {
        ++skipped_;
        continue;
      }
      topology::LogicalLinkId link = net.interface(*iface).link;
      int metric = static_cast<int>(r.value);
      if (metric == 0xFFFF) metric = routing::kCostedOut;
      if (metric == -1) metric = routing::kDown;
      // Monitor timestamps carry jitter; clamp to be monotonic per link.
      try {
        ospf_.set_weight(link, r.utc, metric);
      } catch (const ConfigError&) {
        ++skipped_;  // out-of-order duplicate from a redundant monitor
      }
    } else if (r.source == SourceType::kBgpMon) {
      auto prefix_it = r.attrs.find(kPrefixKey);
      auto egress_it = r.attrs.find(kEgressKey);
      if (prefix_it == r.attrs.end() || egress_it == r.attrs.end()) {
        ++skipped_;
        continue;
      }
      auto egress = net.find_router(egress_it->second.view());
      if (!egress) {
        ++skipped_;
        continue;
      }
      // A malformed prefix, next hop or number skips the record.
      try {
        util::Ipv4Prefix prefix =
            util::Ipv4Prefix::parse(prefix_it->second.view());
        if (r.body == "announce") {
          routing::BgpRoute route;
          route.prefix = prefix;
          route.egress = *egress;
          if (auto it = r.attrs.find(kNexthopKey); it != r.attrs.end()) {
            route.next_hop = util::Ipv4Addr::parse(it->second.view());
          }
          if (!read_int(r.attrs, kLocalPrefKey, route.local_pref) ||
              !read_int(r.attrs, kAsPathLenKey, route.as_path_len) ||
              !read_int(r.attrs, kMedKey, route.med)) {
            ++skipped_;
            continue;
          }
          bgp_.announce(route, r.utc);
        } else if (r.body == "withdraw") {
          bgp_.withdraw(prefix, *egress, r.utc);
        } else {
          ++skipped_;
        }
      } catch (const ParseError&) {
        ++skipped_;
      }
    }
  }
}

}  // namespace grca::collector
