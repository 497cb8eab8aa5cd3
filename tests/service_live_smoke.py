#!/usr/bin/env python3
# Copyright (c) 2026 The G-RCA Reproduction Authors.
# SPDX-License-Identifier: MIT
"""The live-server gate (ctest `service_live_smoke`, label `service`).

Simulates a BGP corpus, writes the offline API dump with
`grca serve --api-dump --once`, then starts `grca serve --port-file` and
checks the running server end to end:

  * GET /healthz answers "ok";
  * GET /metrics is Prometheus text (content type and a TYPE line);
  * every /api/* endpoint parses as JSON and is byte-identical to the dump;
  * SIGTERM shuts the server down cleanly, and its log says so.

Usage: service_live_smoke.py --grca PATH --work DIR
WORK is emptied first and left behind for inspection.
"""

import argparse
import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time
import urllib.request

ENDPOINTS = {
    "/api/breakdown": "breakdown.json",
    "/api/trending": "trending.json",
    "/api/health": "health.json",
    "/api/alerts": "alerts.json",
    "/api/drilldown/unknown": "drilldown-unknown.json",
}


def fail(message):
    sys.exit(f"service_live_smoke: {message}")


def run_grca(grca, work, *args):
    result = subprocess.run([grca, *args], cwd=work, capture_output=True,
                            text=True)
    if result.returncode != 0:
        fail(f"grca {' '.join(args)}: exit status {result.returncode}\n"
             f"{result.stdout}\n{result.stderr}")


def get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=10) as response:
        return response.headers, response.read()


def wait_for_port(port_file, server):
    for _ in range(50):
        if server.poll() is not None:
            fail(f"server exited early with status {server.returncode}")
        text = port_file.read_text() if port_file.exists() else ""
        if text.endswith("\n"):
            return int(text)
        time.sleep(0.2)
    fail("server wrote no port file within 10 s")


def check_live(port, work):
    _, body = get(port, "/healthz")
    if "ok" not in body.decode().splitlines():
        fail(f"/healthz answered {body!r}")

    headers, body = get(port, "/metrics")
    content_type = headers.get("Content-Type", "")
    if "text/plain; version=0.0.4" not in content_type.lower():
        fail(f"/metrics content type is '{content_type}'")
    if b"# TYPE grca_http_requests_total counter" not in body:
        fail("/metrics lacks the grca_http_requests_total TYPE line")

    for target, name in ENDPOINTS.items():
        _, body = get(port, target)
        (work / f"live-{name}").write_bytes(body)
        try:
            json.loads(body)
        except ValueError as e:
            fail(f"{target} is not JSON: {e}")
        if body != (work / "dump-offline" / name).read_bytes():
            fail(f"{target} differs from dump-offline/{name}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--grca", required=True)
    parser.add_argument("--work", required=True, type=pathlib.Path)
    opts = parser.parse_args()
    work = opts.work
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    run_grca(opts.grca, work, "simulate", "--study", "bgp", "--out",
             "smoke-data", "--days", "3", "--symptoms", "100")
    run_grca(opts.grca, work, "serve", "--study", "bgp", "--data",
             "smoke-data", "--api-dump", "dump-offline", "--once")

    with open(work / "serve.log", "w") as log:
        server = subprocess.Popen(
            [opts.grca, "serve", "--study", "bgp", "--data", "smoke-data",
             "--port-file", "port.txt"],
            cwd=work, stdout=log, stderr=subprocess.STDOUT)
        try:
            check_live(wait_for_port(work / "port.txt", server), work)
            server.send_signal(signal.SIGTERM)
            status = server.wait(timeout=30)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
    if status != 0:
        fail(f"server exited with status {status} after SIGTERM")
    if "signal 15: closing listeners" not in (work / "serve.log").read_text():
        fail("serve.log lacks 'signal 15: closing listeners'")
    print("service_live_smoke: live server matches the offline dump")


if __name__ == "__main__":
    main()
