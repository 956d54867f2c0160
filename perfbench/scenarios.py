"""The benchmark's workloads.

Each workload has a set-up (repeated and timed by the runner), one
timed operation, a cheap per-operation output check run outside the
timed region, and a ``finish`` step for checks too costly to run per
operation.  The pure computations used by the operations are module
functions, so ``pin.py`` derives the pinned outputs from the same code.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from checks import Checks, canonical_bytes, expected_digest, sha256
from tracer import Tracer

# -- fixed inputs -------------------------------------------------------------

#: Figure-4 replay: both workloads' own 4-rung RPM ladders.  tpcc runs at
#: about 0.1-0.17 peak disk utilisation and openmail at about 0.4-0.65,
#: so queueing changes show at two queue depths.
REPLAY_NAMES = ("tpcc", "openmail")
REPLAY_STEPS = 4
REPLAY_REQUESTS = 500

#: Figure-1 warm-up: one simulated hour at the paper's 600 steps/min.
TRANSIENT_S = 3600.0
TRANSIENT_DT_S = 0.1
#: Each thermal-dtm operation integrates the next ten minutes of the hour
#: (6,000 steps) from where the previous one stopped, so every sixth
#: operation completes the Figure-1 hour and its final temperatures are
#: checked.  The per-step cost is the hour's; the operation stays short.
TRANSIENT_SEGMENT_S = 600.0
#: Pinned final temperatures may move by this much (Celsius): enough for a
#: re-factored solver that changes only the last bits, far below any
#: physical change.
TRANSIENT_TOL_C = 1e-6

#: Reactive DTM: search_engine on an average-case 2.6" design at 24.5K
#: RPM, with an envelope just above the idle temperature so throttling
#: engages tens of times per replay.
DTM_WORKLOAD = "search_engine"
DTM_RPM = 24500.0
DTM_REQUESTS = 4000
DTM_MAX_AIR_TOL_C = 1e-6

#: Rack-coupled fleet: 14 racks x 6 enclosures x 12 drives = 1,008 drives.
FLEET_SHAPE = {"racks": 14, "enclosures_per_rack": 6, "drives_per_enclosure": 12}
FLEET_TIERING_EXTENTS = 24

#: The job service's small sweep: two workloads, two rungs each.
SERVICE_CONFIG = {"workloads": ["tpcc", "openmail"], "rpm_steps": 2, "requests": 200}
#: Cold jobs cycle through these trace lengths.  Their compute times span
#: more than the service's 50 ms event poll, so the round trip's median
#: moves smoothly with compute speed instead of jumping a whole poll.
SERVICE_COLD_REQUESTS = (100, 150, 200, 250, 300, 350, 400, 450)
#: Resubmissions of each finished job (each must dedup) per operation, so
#: the hit path is a measurable share of the operation's time.
DEDUP_BURST = 32
#: Cold service results re-derived in-process after the timed phase (an
#: evenly spaced sample including the first and last job).
SERVICE_VERIFY_MAX = 12

HTTP_TIMEOUT_S = 60.0
BOOT_TIMEOUT_S = 60.0


# -- pure computations (shared with pin.py) -----------------------------------


def replay_bytes(seed: int, store: Any = None, requests: int = REPLAY_REQUESTS) -> Tuple[bytes, int]:
    """Serial exact-engine replay sweep; (canonical results bytes, requests)."""
    from repro.simulation.sweep import results_json_bytes, sweep_workloads

    results = sweep_workloads(
        list(REPLAY_NAMES),
        rpm_steps=REPLAY_STEPS,
        requests=requests,
        seed=seed,
        workers=1,
        store=store,
        backend="serial",
    )
    return results_json_bytes(results), sum(r.requests for r in results)


def transient_final() -> Tuple[Dict[str, float], int]:
    """The Figure-1 transient; (final node temperatures, steps taken)."""
    from repro.drives import cheetah15k3

    model = cheetah15k3.thermal_model()
    result = model.transient(TRANSIENT_S, dt_s=TRANSIENT_DT_S, from_ambient=True)
    final = {node: result.final(node) for node in sorted(result.temperatures)}
    return final, len(result.times_s) - 1


def dtm_summary(seed: int, requests: int = DTM_REQUESTS) -> Tuple[Dict[str, Any], float]:
    """A throttling DTM replay; (exact simulated summary, hottest air C)."""
    from repro.dtm.controller import DTMPolicy, ThermallyManagedSystem
    from repro.thermal.model import DriveThermalModel
    from repro.workloads import workload

    spec = workload(DTM_WORKLOAD)
    trace = spec.generate(num_requests=requests, seed=seed)
    system = spec.build_system(rpm=DTM_RPM)
    thermal = DriveThermalModel(platter_diameter_in=2.6, rpm=DTM_RPM, vcm_active=False)
    thermal.settle()
    thermal.set_operating_state(vcm_active=True)
    policy = DTMPolicy(
        envelope_c=thermal.air_c() + 0.05,
        trigger_margin_c=0.01,
        resume_margin_c=0.04,
        check_interval_ms=20.0,
    )
    report = ThermallyManagedSystem(system, thermal, policy).run_trace(trace)
    stats = report.stats
    summary = {
        "requests": stats.count,
        "mean_ms": stats.mean_ms(),
        "median_ms": stats.median_ms(),
        "p95_ms": stats.percentile_ms(95),
        "max_ms": stats.max_ms(),
        "simulated_ms": report.simulated_ms,
        "throttled_ms": report.throttled_ms,
        "throttle_events": report.throttle_events,
        "emergency_events": report.emergency_events,
    }
    return summary, report.max_air_c


def fleet_bytes(seed: int) -> Tuple[bytes, int, int]:
    """A serial 1,008-drive fleet sweep; (canonical bytes, drives, failed racks)."""
    from repro.fleet.sweep import build_rack_tasks, fleet_results_json_bytes, run_fleet_sweep
    from repro.fleet.tiering import TieringPolicy
    from repro.fleet.topology import uniform_fleet

    tasks = build_rack_tasks(
        uniform_fleet(**FLEET_SHAPE),
        tiering=TieringPolicy(extents=FLEET_TIERING_EXTENTS, seed=seed),
    )
    results, report = run_fleet_sweep(tasks, workers=1, backend="serial")
    drives = sum(r.drive_count for r in results if r is not None)
    return fleet_results_json_bytes(results), drives, len(report.failed)


def service_reference(config: Dict[str, Any]) -> bytes:
    """What ``/v1/results/{key}`` must serve for a service sweep config."""
    from repro.simulation.sweep import results_json_bytes, sweep_workloads

    results = sweep_workloads(
        config["workloads"],
        rpm_steps=config["rpm_steps"],
        requests=config["requests"],
        seed=config["seed"],
        workers=1,
        backend="serial",
    )
    return results_json_bytes(results)


# -- plumbing ------------------------------------------------------------------


class Context:
    """Paths, seed, pins and the child-process environment of one run."""

    def __init__(self, root: str, workdir: str, seed: int, pins: Dict[str, Any]) -> None:
        self.src = os.path.join(root, "src")
        self.bench_dir = os.path.dirname(os.path.abspath(__file__))
        self.workdir = workdir
        self.seed = seed
        self.pins = pins
        self._serial = 0

    def fresh_dir(self, prefix: str) -> str:
        self._serial += 1
        path = os.path.join(self.workdir, f"{prefix}-{self._serial}")
        os.makedirs(path)
        return path

    def child_env(self, pycache: str) -> Dict[str, str]:
        """The caller's environment minus every Python and repro knob,
        plus a fixed hash seed and a benchmark-owned bytecode cache."""
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith(("PYTHON", "REPRO_"))
        }
        env.update(
            PYTHONPATH=self.src,
            PYTHONHASHSEED="0",
            PYTHONPYCACHEPREFIX=pycache,
        )
        return env

    def import_probe(self, modules: Tuple[str, ...]) -> None:
        """Import ``modules`` in a fresh interpreter with an empty bytecode
        cache: the import and compile cost a new process pays."""
        pycache = self.fresh_dir("pycache")
        code = "; ".join(f"import {name}" for name in modules)
        subprocess.run(
            [sys.executable, "-c", code],
            env=self.child_env(pycache),
            check=True,
            timeout=120,
        )


def maybe_span(tracer: Optional[Tracer], name: str) -> Any:
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Outcome:
    """What one operation produced: its timed parts plus anything to check.

    ``parts`` maps a part of the operation to (work units, host seconds).
    """

    def __init__(self, parts: Dict[str, Tuple[float, float]], **data: Any) -> None:
        self.parts = parts
        self.data = data


class DigestCheck:
    """Outputs compared with a pinned digest when the seed has one, and
    with the first operation's output always."""

    def __init__(self, expected: Optional[str]) -> None:
        self.expected = expected
        self.first: Optional[str] = None

    def check(self, data: bytes, checks: Checks, what: str) -> None:
        digest = sha256(data)
        if self.first is None:
            self.first = digest
            if self.expected is not None:
                checks.equal(digest, self.expected, f"{what} pinned sha256")
        else:
            checks.equal(digest, self.first, f"{what} repeat sha256")


class Workload:
    """Base class: subclasses fill in the hooks."""

    name = ""
    #: the headline figures of the detail report (see README.md): (name,
    #: part, "rate" in units per host-second or "p50_ms" for the median
    #: milliseconds per unit)
    headlines: Tuple[Tuple[str, str, str], ...] = ()
    #: modules a fresh process imports to run this workload
    modules: Tuple[str, ...] = ()
    #: peak RSS comes from child processes instead of this one
    rss_from_children = False
    #: outputs are compared with pins.json (not only with a second run)
    pinned = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        """Prepare fresh state; called several times, each timed."""
        self.ctx.import_probe(self.modules)
        self.warm_up()

    def warm_up(self) -> None:
        pass

    def op(self, index: int, tracer: Optional[Tracer]) -> Outcome:
        raise NotImplementedError

    def check(self, index: int, outcome: Outcome, checks: Checks) -> None:
        raise NotImplementedError

    def finish(self, checks: Checks) -> None:
        pass

    def trace_begin(self) -> None:
        """Called just before the traced phase starts."""

    def trace_extra(self) -> Dict[str, float]:
        """Per-layer figures spans cannot give, read after the traced phase."""
        return {}

    def close(self) -> None:
        pass


# -- in-process workloads -------------------------------------------------------


class ReplayCold(Workload):
    name = "replay-cold"
    headlines = (("replay_requests_per_s", "replay", "rate"),)
    modules = ("repro.simulation.sweep", "repro.store")

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        expected = expected_digest(ctx.pins, "replay", ctx.seed)
        self.pinned = expected is not None
        self.results = DigestCheck(expected)

    def warm_up(self) -> None:
        from repro.store import ResultStore

        replay_bytes(self.ctx.seed, ResultStore(self.ctx.fresh_dir("warmup")), requests=50)

    def op(self, index: int, tracer: Optional[Tracer]) -> Outcome:
        from repro.store import ResultStore

        store_dir = os.path.join(self.ctx.workdir, f"cold-{index}")
        t0 = time.perf_counter()
        data, requests = replay_bytes(self.ctx.seed, ResultStore(store_dir))
        return Outcome({"replay": (requests, time.perf_counter() - t0)}, data=data, store_dir=store_dir)

    def check(self, index: int, outcome: Outcome, checks: Checks) -> None:
        checks.record(True, "sweep tasks", attempts=len(REPLAY_NAMES) * REPLAY_STEPS)
        self.results.check(outcome.data["data"], checks, "replay results")
        if index > 0:
            shutil.rmtree(os.path.join(self.ctx.workdir, f"cold-{index - 1}"), ignore_errors=True)
        self.last = outcome.data

    def finish(self, checks: Checks) -> None:
        # Cross-path check: the last cold store, read back warm, must give
        # the same bytes (every task a hit, decoded by the store codec).
        from repro.store import ResultStore

        warm, _ = replay_bytes(self.ctx.seed, ResultStore(self.last["store_dir"]))
        checks.equal(sha256(warm), sha256(self.last["data"]), "warm re-read sha256")


class ThermalDtm(Workload):
    name = "thermal-dtm"
    headlines = (
        ("thermal_steps_per_s", "transient", "rate"),
        ("dtm_requests_per_s", "dtm", "rate"),
        ("fleet_drives_per_s", "fleet", "rate"),
    )
    modules = ("repro.drives.cheetah15k3", "repro.dtm.controller", "repro.workloads", "repro.fleet.sweep")

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        dtm = expected_digest(ctx.pins, "dtm", ctx.seed)
        fleet = expected_digest(ctx.pins, "fleet", ctx.seed)
        self.pinned = dtm is not None and fleet is not None
        self.dtm = DigestCheck(dtm)
        self.fleet = DigestCheck(fleet)
        self.max_air_c = ctx.pins.get("dtm_max_air_c", {}).get(str(ctx.seed))

    def warm_up(self) -> None:
        from repro.drives import cheetah15k3

        cheetah15k3.thermal_model().transient(60.0, dt_s=TRANSIENT_DT_S, from_ambient=True)
        dtm_summary(self.ctx.seed, requests=200)
        fleet_bytes(self.ctx.seed)

    def op(self, index: int, tracer: Optional[Tracer]) -> Outcome:
        from repro.drives import cheetah15k3

        t0 = time.perf_counter()
        segments = int(round(TRANSIENT_S / TRANSIENT_SEGMENT_S))
        segment = index % segments
        if segment == 0:
            self.model = cheetah15k3.thermal_model()
        result = self.model.transient(
            TRANSIENT_SEGMENT_S, dt_s=TRANSIENT_DT_S, from_ambient=segment == 0
        )
        t1 = time.perf_counter()
        summary, max_air_c = dtm_summary(self.ctx.seed)
        t2 = time.perf_counter()
        fleet, drives, failed = fleet_bytes(self.ctx.seed)
        t3 = time.perf_counter()
        steps = len(result.times_s) - 1
        final = None
        if segment == segments - 1:
            final = {node: result.final(node) for node in sorted(result.temperatures)}
        return Outcome(
            {
                "transient": (steps, t1 - t0),
                "dtm": (summary["requests"], t2 - t1),
                "fleet": (drives, t3 - t2),
            },
            final=final,
            summary=summary,
            max_air_c=max_air_c,
            fleet=fleet,
            failed=failed,
        )

    def check(self, index: int, outcome: Outcome, checks: Checks) -> None:
        data = outcome.data
        steps = int(round(TRANSIENT_SEGMENT_S / TRANSIENT_DT_S))
        checks.equal(outcome.parts["transient"][0], steps, "transient segment steps")
        if data["final"] is not None:
            pinned = self.ctx.pins["transient"]
            checks.close(data["final"], pinned["final_c"], pinned["tolerance_c"], "final temps")
        summary = data["summary"]
        checks.equal(summary["requests"], DTM_REQUESTS, "DTM requests completed")
        checks.record(summary["throttle_events"] > 0, "DTM never throttled")
        self.dtm.check(canonical_bytes(summary), checks, "DTM summary")
        if self.max_air_c is not None:
            checks.close(
                {"max_air_c": data["max_air_c"]},
                {"max_air_c": self.max_air_c},
                DTM_MAX_AIR_TOL_C,
                "DTM hottest air",
            )
        racks = FLEET_SHAPE["racks"]
        checks.record(data["failed"] == 0, "fleet rack tasks failed", attempts=racks)
        per_rack = FLEET_SHAPE["enclosures_per_rack"] * FLEET_SHAPE["drives_per_enclosure"]
        checks.equal(outcome.parts["fleet"][0], racks * per_rack, "fleet drives")
        self.fleet.check(data["fleet"], checks, "fleet results")


# -- subprocess workloads -------------------------------------------------------


class ReplayWarmCli(Workload):
    name = "replay-warm-cli"
    headlines = (("cli_warm_p50_ms", "cli", "p50_ms"),)
    modules = ("repro.simulation.sweep", "repro.store")
    rss_from_children = True

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.expected = expected_digest(ctx.pins, "replay", ctx.seed)
        self.pinned = self.expected is not None
        self.reference: Optional[bytes] = None

    def argv(self) -> List[str]:
        return [
            "sweep", "workload", ",".join(REPLAY_NAMES),
            "-n", str(REPLAY_REQUESTS), "--seed", str(self.ctx.seed),
            "--steps", str(REPLAY_STEPS), "-w", "1",
            "--store-dir", self.store_dir, "--results-out", self.out_path,
        ]

    def setup(self) -> None:
        from repro.store import ResultStore

        self.store_dir = self.ctx.fresh_dir("store")
        self.pycache = self.ctx.fresh_dir("pycache")
        self.out_path = os.path.join(self.ctx.workdir, "results.json")
        self.env = self.ctx.child_env(self.pycache)
        self.reference, _ = replay_bytes(self.ctx.seed, ResultStore(self.store_dir))
        # One invocation outside the timed loop compiles the bytecode cache.
        rc, _ = self._invoke([sys.executable, "-m", "repro"] + self.argv())
        if rc != 0:
            raise RuntimeError(f"warm-up CLI run exited {rc}")

    def _invoke(self, argv: List[str]) -> Tuple[int, bytes]:
        proc = subprocess.run(
            argv, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120
        )
        return proc.returncode, proc.stderr

    def op(self, index: int, tracer: Optional[Tracer]) -> Outcome:
        t0 = time.perf_counter()
        if tracer is None:
            rc, err = self._invoke([sys.executable, "-m", "repro"] + self.argv())
            return Outcome({"cli": (1, time.perf_counter() - t0)}, rc=rc, err=err)
        spans_path = os.path.join(self.ctx.workdir, "child-spans.json")
        child = [sys.executable, os.path.join(self.ctx.bench_dir, "cli_child.py"), spans_path, "1"]
        rc, err = self._invoke(child + self.argv())
        elapsed = time.perf_counter() - t0
        with open(spans_path, "r", encoding="utf-8") as handle:
            recorded = json.load(handle)
        tracer.adopt(recorded["spans"], parent=tracer.current())
        for name, value in recorded["counters"].items():
            tracer.count(name, value)
        return Outcome({"cli": (1, elapsed)}, rc=rc, err=err)

    def check(self, index: int, outcome: Outcome, checks: Checks) -> None:
        rc = outcome.data["rc"]
        err = outcome.data["err"].decode("utf-8", "replace")[-500:]
        if checks.record(rc == 0, f"CLI exited {rc}: {err}"):
            with open(self.out_path, "rb") as handle:
                data = handle.read()
            checks.equal(sha256(data), sha256(self.reference or b""), "CLI results vs in-process")
            os.remove(self.out_path)

    def finish(self, checks: Checks) -> None:
        if self.expected is not None and self.reference is not None:
            checks.digest(self.reference, self.expected, "in-process results pinned")

    def trace_extra(self) -> Dict[str, float]:
        # The module count comes from an untraced child: the tracer's own
        # modules must not inflate it.
        counts_path = os.path.join(self.ctx.workdir, "child-count.json")
        child = [sys.executable, os.path.join(self.ctx.bench_dir, "cli_child.py"), counts_path, "0"]
        self._invoke(child + self.argv())
        with open(counts_path, "r", encoding="utf-8") as handle:
            return {"cli.modules_imported": float(json.load(handle)["modules"])}


class ServiceRoundtrip(Workload):
    """``repro serve --backend serial`` on an ephemeral port, one client.

    Each operation submits a fresh-seed sweep (every task misses),
    follows its event stream to the terminal event and fetches the
    results, then resubmits the same config :data:`DEDUP_BURST` times
    (each must dedup) and fetches the results after each.  Results are
    checked against an in-process computation of the same config rather
    than against pins: every job has a fresh seed.
    """

    name = "service-roundtrip"
    headlines = (("job_rt_p50_ms", "job", "p50_ms"), ("dedup_rt_p50_ms", "dedup", "p50_ms"))
    rss_from_children = True
    pinned = False

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.proc: Optional["subprocess.Popen[bytes]"] = None
        self.port = 0
        self.non2xx = 0
        self.samples: Dict[str, List[float]] = {}
        self.jobs: List[Tuple[Dict[str, Any], bytes]] = []

    def setup(self) -> None:
        self.boot()

    # -- server lifetime --

    def boot(self) -> None:
        self.stop()
        store_dir = self.ctx.fresh_dir("store")
        pycache = self.ctx.fresh_dir("pycache")
        port_file = os.path.join(self.ctx.fresh_dir("port"), "port")
        log = open(os.path.join(self.ctx.workdir, "serve.log"), "ab")
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0", "--port-file", port_file,
                    "--store-dir", store_dir, "--backend", "serial",
                ],
                env=self.ctx.child_env(pycache),
                stdout=log,
                stderr=log,
            )
        finally:
            log.close()
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited {self.proc.returncode} during boot")
            with contextlib.suppress(FileNotFoundError, ValueError):
                with open(port_file, "r", encoding="utf-8") as handle:
                    self.port = int(handle.read().strip())
                status, _ = self.request("GET", "/healthz")
                if status == 200:
                    return
            time.sleep(0.005)
        raise RuntimeError("repro serve did not come up")

    def stop(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)

    def close(self) -> None:
        self.stop()

    # -- HTTP --

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S)

    def request(self, method: str, path: str, payload: Any = None) -> Tuple[int, bytes]:
        conn = self.connect()
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def submit(self, config: Dict[str, Any], checks_on: List[Tuple[int, str]]) -> Dict[str, Any]:
        status, body = self.request("POST", "/v1/jobs", config)
        checks_on.append((status, "POST /v1/jobs"))
        return json.loads(body) if 200 <= status < 300 else {}

    def stream_to_terminal(self, job_id: str) -> Tuple[int, Optional[Dict[str, Any]], float]:
        """Read the job's event stream; (status, terminal event, receipt time)."""
        conn = self.connect()
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            terminal: Optional[Dict[str, Any]] = None
            received = 0.0
            if response.status == 200:
                for line in response:
                    event = json.loads(line)
                    if event["event"] in ("job_done", "job_failed"):
                        received = time.time()
                        terminal = event
            else:
                response.read()
            return response.status, terminal, received
        finally:
            conn.close()

    def scrape(self) -> Dict[str, float]:
        """Counters from ``/metrics`` (unlabelled samples only)."""
        status, body = self.request("GET", "/metrics")
        values: Dict[str, float] = {}
        if status != 200:
            return values
        for line in body.decode("utf-8").splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return values

    def record_statuses(self, statuses: List[Tuple[int, str]], checks: Checks) -> None:
        for status, what in statuses:
            if not checks.status(status, what):
                self.non2xx += 1

    def config(self, seed: int, requests: int = SERVICE_CONFIG["requests"]) -> Dict[str, Any]:
        return dict(SERVICE_CONFIG, seed=seed, requests=requests, backend="serial")

    def trace_begin(self) -> None:
        self.samples = {}
        self.before = self.scrape()

    def sample(self, name: str, value_s: float) -> None:
        self.samples.setdefault(name, []).append(value_s * 1000.0)

    def trace_extra(self) -> Dict[str, float]:
        after = self.scrape()
        ops = max(len(self.samples.get("service.fetch_ms", [])), 1)

        def delta(metric: str) -> float:
            return (after.get(metric, 0.0) - self.before.get(metric, 0.0)) / ops

        extra = {
            name: statistics.median(values) for name, values in self.samples.items() if values
        }
        extra.update(
            {
                "service.dedup_hits": delta("repro_service_dedup_hits_total"),
                "service.store_hits": delta("repro_store_hit_total"),
                "service.store_misses": delta("repro_store_miss_total"),
                "service.non2xx": float(self.non2xx),
            }
        )
        return extra


    def op(self, index: int, tracer: Optional[Tracer]) -> Outcome:
        requests = SERVICE_COLD_REQUESTS[index % len(SERVICE_COLD_REQUESTS)]
        config = self.config(self.ctx.seed * 100_000 + index + 1, requests)
        statuses: List[Tuple[int, str]] = []
        t0 = time.perf_counter()
        with maybe_span(tracer, "service.submit"):
            job = self.submit(config, statuses)
        t1 = time.perf_counter()
        terminal: Optional[Dict[str, Any]] = None
        received = 0.0
        body = b""
        if job:
            with maybe_span(tracer, "service.complete_wait"):
                status, terminal, received = self.stream_to_terminal(job["id"])
            statuses.append((status, "GET events"))
        t2 = time.perf_counter()
        if job:
            with maybe_span(tracer, "service.fetch"):
                status, body = self.request("GET", f"/v1/results/{job['key']}")
            statuses.append((status, "GET results"))
        t3 = time.perf_counter()
        answers: List[Tuple[Dict[str, Any], bytes]] = []
        if job:
            with maybe_span(tracer, "service.dedup"):
                for _ in range(DEDUP_BURST):
                    again = self.submit(config, statuses)
                    status, again_body = self.request("GET", f"/v1/results/{job['key']}")
                    statuses.append((status, "GET results again"))
                    answers.append((again, again_body))
        t4 = time.perf_counter()
        if tracer is not None:
            self.sample("service.submit_ms", t1 - t0)
            self.sample("service.complete_wait_ms", t2 - t1)
            self.sample("service.fetch_ms", t3 - t2)
            self.sample("service.dedup_rt_ms", (t4 - t3) / DEDUP_BURST)
            if terminal is not None:
                self.sample("service.notify_lag_ms", received - terminal["time_s"])
        return Outcome(
            {"job": (1, t3 - t0), "dedup": (DEDUP_BURST, t4 - t3)},
            config=config,
            job=job,
            terminal=terminal,
            body=body,
            answers=answers,
            statuses=statuses,
        )

    def check(self, index: int, outcome: Outcome, checks: Checks) -> None:
        data = outcome.data
        self.record_statuses(data["statuses"], checks)
        job = data["job"]
        if not job:
            return
        checks.equal(job.get("deduplicated"), False, "fresh config deduplicated")
        terminal = data["terminal"] or {}
        checks.equal(terminal.get("event"), "job_done", "terminal event")
        for again, again_body in data["answers"]:
            checks.equal(again.get("deduplicated"), True, "resubmission deduplicated")
            checks.equal(again.get("id"), job["id"], "resubmission job id")
            checks.equal(sha256(again_body), sha256(data["body"]), "dedup fetch vs first fetch")
        self.jobs.append((data["config"], data["body"]))

    def finish(self, checks: Checks) -> None:
        count = len(self.jobs)
        spacing = max(SERVICE_VERIFY_MAX - 1, 1)
        picks = sorted({round(i * (count - 1) / spacing) for i in range(SERVICE_VERIFY_MAX)})
        for pick in picks if count else []:
            config, body = self.jobs[pick]
            checks.equal(
                sha256(body), sha256(service_reference(config)), f"service results seed {config['seed']}"
            )


WORKLOADS: Dict[str, Callable[[Context], Workload]] = {
    cls.name: cls for cls in (ReplayCold, ReplayWarmCli, ThermalDtm, ServiceRoundtrip)
}
