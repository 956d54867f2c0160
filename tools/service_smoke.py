#!/usr/bin/env python
"""CI ``service-smoke`` driver: boot ``repro serve``, prove the economics.

Boots the real service as a subprocess on an ephemeral port, submits the
canonical smoke sweep twice (the second submission must dedup against
the first), follows the job's ``/events`` stream to its terminal event,
fetches ``/v1/results/<key>`` twice (the repeat is served from memory
and must be byte-equal to the first, store-backed fetch), writes those
bytes to ``--out`` (CI then ``cmp``'s them against a ``repro sweep
workload --results-out`` artifact for byte-identity), scrapes
``/metrics`` — asserting the exposition parses back and the dedup
counter reads 1 — and finally SIGTERMs the server, requiring a clean
exit.

Usage::

    PYTHONPATH=src python tools/service_smoke.py \
        --store-dir /tmp/svc-store --out service.json \
        --metrics-out metrics.prom
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, List, Optional, Tuple

PAYLOAD = {
    "workloads": ["tpcc", "oltp"],
    "rpm_steps": 2,
    "requests": 200,
    "seed": 11,
    "backend": "serial",
}


def request(
    port: int, method: str, path: str, payload: Optional[Any] = None
) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def follow_events(port: int, job_id: str) -> List[Any]:
    """The job's whole event stream, read until the server closes it."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events")
        response = conn.getresponse()
        assert response.status == 200, response.status
        return [json.loads(line) for line in response]
    finally:
        conn.close()


def start_server(store_dir: str, port_file: str) -> "subprocess.Popen[bytes]":
    argv = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--port",
        "0",
        "--port-file",
        port_file,
        "--store-dir",
        store_dir,
        "--backend",
        "serial",
    ]
    return subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH="src"))


def wait_for_port(port_file: str, proc: "subprocess.Popen[bytes]") -> int:
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"server died during startup: {proc.returncode}")
        try:
            with open(port_file, "r", encoding="utf-8") as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except FileNotFoundError:
            pass
        time.sleep(0.05)
    raise SystemExit("server did not write its port file in 30 s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store-dir", required=True)
    parser.add_argument(
        "--out", required=True, help="where the fetched results bytes land"
    )
    parser.add_argument(
        "--metrics-out", default=None, help="optional raw /metrics dump"
    )
    args = parser.parse_args()

    from repro.reporting import parse_prometheus_text

    port_file = os.path.join(tempfile.mkdtemp(prefix="repro-svc-"), "port")
    proc = start_server(args.store_dir, port_file)
    try:
        port = wait_for_port(port_file, proc)
        print(f"service up on port {port}")

        status, body = request(port, "POST", "/v1/jobs", PAYLOAD)
        assert status == 201, (status, body)
        first = json.loads(body)
        assert first["deduplicated"] is False

        status, body = request(port, "POST", "/v1/jobs", PAYLOAD)
        assert status == 200, (status, body)
        second = json.loads(body)
        assert second["deduplicated"] is True, second
        assert second["id"] == first["id"]
        print(f"dedup confirmed: both submissions map to {first['id']}")

        events = follow_events(port, first["id"])
        assert [e["seq"] for e in events] == list(range(len(events))), events
        assert events[0]["event"] == "job_queued", events[0]
        assert events[-1]["event"] == "job_done", events[-1]
        print(f"event stream: {len(events)} events, queued -> done")

        status, body = request(port, "GET", f"/v1/jobs/{first['id']}")
        assert status == 200, (status, body)
        doc = json.loads(body)
        assert doc["state"] == "done", doc
        progress = doc["progress"]
        print(
            f"job done: {progress['done']}/{progress['total']} tasks "
            f"({progress['cached']} cached)"
        )

        status, results = request(
            port, "GET", f"/v1/results/{first['key']}"
        )
        assert status == 200, status
        status, again = request(port, "GET", f"/v1/results/{first['key']}")
        assert status == 200, status
        assert again == results, "repeat results fetch differs from the first"
        with open(args.out, "wb") as handle:
            handle.write(results)
        print(f"results: {len(results)} bytes -> {args.out}")

        status, metrics = request(port, "GET", "/metrics")
        assert status == 200, status
        text = metrics.decode("utf-8")
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(text)
        parsed = parse_prometheus_text(text)
        dedup = parsed["repro_service_dedup_hits_total"]["samples"]
        assert list(dedup.values()) == [1.0], dedup
        assert "repro_service_jobs_completed_total" in parsed
        assert "repro_service_jobs_by_workload_total" in parsed
        print(f"metrics: {len(parsed)} families parsed back, dedup_hits=1")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise SystemExit("server ignored SIGTERM for 30 s")
    assert proc.returncode == 0, f"server exit code {proc.returncode}"
    print("clean SIGTERM shutdown; service smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
