#!/usr/bin/env python3
"""Runs one workload of the G-RCA end-to-end benchmark.

    python3 perfbench/run.py --workload bgp-batch --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds the program's libraries and the
benchmark harness from source into .bench_build/perfbench (CMake), generates
the workload's seeded corpus under .bench_build/work, runs the harness on it
and deletes the corpus again. The harness's standard output is passed through:
one "name = value unit" line per metric, then the result object as the last
line. The full result (input fingerprint, environment stamp, details, gate
failures) goes to .bench_build/results/<workload>-seed<N>-trace<T>.json, and
a traced run's spans to the .spans.jsonl file beside it (`grca spans --in
FILE` turns them into a Chrome trace). See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("bgp-batch", "innet-store", "bgp-stream")
HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def call(cmd, timeout):
    """Runs a build or generate step with its output on stderr."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"exit {done.returncode}: {' '.join(cmd)}")


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        call(["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    call(["cmake", "--build", str(build_dir), "--target", "grca_perfbench",
          "-j", jobs], 1800)
    return build_dir / "grca_perfbench"


def git_commit(root):
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_hash(root):
    """sha256 over the program's sources: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no program sources: run from the repository root")
    bench = root / ".bench_build"
    binary = build(bench / "perfbench")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = bench / "work" / f"{tag}-{os.getpid()}"
    results = bench / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        data = work / "corpus"
        call([str(binary), "generate", "--workload", args.workload,
              "--seed", str(args.seed), "--out", str(data)], 120)
        cmd = [str(binary), "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--data", str(data),
               "--work", str(work / "scratch"),
               "--out", str(results / f"{tag}.json"),
               "--commit", git_commit(root),
               "--source-hash", source_hash(root)]
        if args.trace:
            cmd += ["--spans", str(results / f"{tag}.spans.jsonl")]
        sys.stdout.flush()
        try:
            code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
