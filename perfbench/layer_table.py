#!/usr/bin/env python3
"""Prints the per-layer table (ROADMAP "Baseline") from traced results.

    python3 perfbench/run.py --workload bgp-batch --seed 1 --seconds 10 --trace 1
    python3 perfbench/layer_table.py .bench_build/results/*-trace1.json

Each row is one traced result file. "wall" is the median untraced wall time
of the run; every other column is the median self time of the spans around
that layer's public call (see README.md). "read" sums reading configs,
building the network, reading records.tsv and reading truth.
"""

import json
import sys

READ = ("topology.read_configs", "topology.build_network",
        "telemetry.read_stream", "sim.read_truth")
COLUMNS = [
    ("normalize", ("collector.normalize",)),
    ("index", ("collector.index",)),
    ("routing", ("collector.routing_replay",)),
    ("extract", ("collector.extract",)),
    ("store open", ("storage.open",)),
    ("warm", ("core.warm",)),
    ("diagnose", ("core.diagnose",)),
    ("render", ("core.render",)),
    ("ingest", ("apps.stream.ingest",)),
    ("advance", ("apps.stream.advance",)),
]


def seconds(value):
    return "–" if value is None else (
        f"{value:.2f} s" if value >= 1 else f"{value * 1e3:.1f} ms")


def row(path):
    with open(path) as f:
        result = json.load(f)
    details = result["details"]
    metrics = result["result"]["metrics"]

    def busy(names):
        found = [details[f"busy.{n}"] for n in names if f"busy.{n}" in details]
        return sum(found) if found else None

    records = result["inputs"]["records"]
    cells = [f"{result['workload']} ({records:,})",
             seconds(metrics["wall_s"]["value"]), seconds(busy(READ))]
    cells += [seconds(busy(names)) for _, names in COLUMNS]
    cells.append(f"{metrics['trace.unaccounted_fraction']['value']:.2%}")
    return "| " + " | ".join(cells) + " |"


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    header = ["workload (records)", "wall", "read"]
    header += [name for name, _ in COLUMNS] + ["unaccounted"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for path in sys.argv[1:]:
        print(row(path))


if __name__ == "__main__":
    main()
