// Copyright (c) 2026 The G-RCA Reproduction Authors.
// SPDX-License-Identifier: MIT
//
// Router configuration snapshots.
//
// The paper's G-RCA never sees a ready-made topology object: it derives
// logical/physical device association, router→line-card→interface
// containment, customer attachment, APS/bundle membership and reflector
// assignment by parsing *daily router configuration snapshots* plus an
// external layer-1 inventory database (§II-B, utilities 2 and 4-7).
//
// We reproduce that pipeline: render_config() emits a config-file text per
// router; render_layer1_inventory() emits the inventory database; and
// build_network_from_configs() reconstructs a full Network from those texts
// alone. Tests assert the round trip is lossless, which proves the RCA side
// can operate purely from collected data.
#pragma once

#include <string>
#include <vector>

#include "topology/network.h"

namespace grca::topology {

/// Renders the configuration snapshot of one router.
std::string render_config(const Network& net, RouterId router);

/// Renders configuration snapshots for every router, in id order.
std::vector<std::string> render_all_configs(const Network& net);

/// Renders the external layer-1 inventory database: device list plus the
/// circuit → layer-1 path mapping (§II-B utility 7).
std::string render_layer1_inventory(const Network& net);

/// Reconstructs a Network from rendered configs and the layer-1 inventory.
/// Throws grca::ParseError on malformed input, naming the source and its
/// 1-based line ("<name>:<line>: ..."), and grca::ConfigError on
/// cross-snapshot inconsistencies (e.g. a link whose far end never appears).
/// `config_names` names configs[i] in errors (default "config <i+1>").
Network build_network_from_configs(
    const std::vector<std::string>& configs,
    const std::string& layer1_inventory,
    const std::vector<std::string>& config_names = {},
    const std::string& inventory_name = "inventory");

}  // namespace grca::topology
