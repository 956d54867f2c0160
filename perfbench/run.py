"""Benchmark runner: one workload, one seed, measured or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay-cold --seed 1 --seconds 8 --trace 0

``--trace 0`` is the measured run: it sets the workload up several
times (timing each), then runs its operation in a closed loop for
``--seconds`` and prints the end-to-end metrics.  Every timed set-up
and operation is bracketed by a fixed reference loop, and the gated
times are given in reference seconds (see :func:`ref_seconds`), so a
shared host's changing speed cancels out of them.  ``--trace 1`` sets up
once, runs half the time untraced and half with span recorders around
the program's layer functions, and prints the per-layer metrics; the
spans land in ``.perfbench_out/``.

The second-to-last line of output is a detail report (host block,
sample counts, latency quantiles, headline figures, check failures);
the last line is the result object.  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from checks import Checks, result_line  # noqa: E402
from layers import OP_SPAN, PER_LAYER, TARGETS, per_layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Set-ups per measured run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A phase ends after ``--seconds`` but never before this many operations.
MIN_OPS = 3
#: A traced phase also ends once it holds this many spans (memory bound).
MAX_SPANS = 200_000

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_ref_s", "1/ref_s"),
    ("peak_rss_mb", "MB"),
]

#: Iterations of the reference loop, and the time in which it defines a
#: reference second: a host that runs the loop in ``REF_LOOP_S`` is the
#: reference host.  About the loop's time on the 2-vCPU host the
#: benchmark was written on when that host was quiet.
REF_LOOP_ITERATIONS = 150_000
REF_LOOP_S = 0.010


def reference_loop() -> float:
    """Host seconds a fixed pure-Python loop takes right now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - t0


def ref_seconds(work: Callable[[], Any]) -> Tuple[Any, float, float]:
    """Run ``work`` between two reference loops.

    Returns (its result, host seconds, reference seconds).  Reference
    seconds are the host seconds scaled by ``REF_LOOP_S`` over the mean
    of the two loops: on a shared host whose speed drifts by tens of
    percent from one minute to the next, the loop slows with the
    operation, so the ratio moves far less than host time does.
    """
    before = reference_loop()
    t0 = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - t0
    after = reference_loop()
    return result, elapsed, elapsed * REF_LOOP_S * 2.0 / (before + after)


def pin_to_one_cpu() -> Optional[int]:
    """Run this process and every child on one CPU.

    Every workload is a closed loop with one operation in flight, so one
    CPU suffices; pinning keeps the client/child hand-offs from depending
    on where the scheduler happens to place each process.  Returns the
    CPU, or None where affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def host_block(root: str, cpu: Optional[int]) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "loadavg_before": list(os.getloadavg()),
    }


def git_commit(root: str) -> Optional[str]:
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def top_percentile(samples: List[float]) -> Optional[Tuple[int, float]]:
    """The highest of p99/p95/p90/p75 with at least ten samples above it."""
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75):
        if len(ordered) * (100 - pct) / 100 >= 10:
            index = min(len(ordered) - 1, int(round(pct / 100 * (len(ordered) - 1))))
            return pct, ordered[index]
    return None


class Phase:
    """One closed loop of operations: latencies (host and reference
    seconds) and per-part timings."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.ref_latencies: List[float] = []
        self.parts: Dict[str, List[Tuple[float, float]]] = {}

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def one_op(workload: Any, index: int, tracer: Optional[Tracer]) -> Any:
    if tracer is None:
        return workload.op(index, None)
    with tracer.span(OP_SPAN):
        return workload.op(index, tracer)


def run_phase(
    workload: Any,
    checks: Checks,
    seconds: float,
    first_index: int,
    tracer: Optional[Tracer] = None,
) -> Phase:
    phase = Phase()
    start = time.perf_counter()
    index = first_index
    while True:
        outcome, host_s, ref_s = ref_seconds(lambda: one_op(workload, index, tracer))
        phase.latencies.append(host_s)
        phase.ref_latencies.append(ref_s)
        for part, timing in outcome.parts.items():
            phase.parts.setdefault(part, []).append(timing)
        workload.check(index, outcome, checks)
        index += 1
        if len(phase.latencies) < MIN_OPS:
            continue
        if time.perf_counter() - start >= seconds:
            return phase
        if tracer is not None and len(tracer.spans) >= MAX_SPANS:
            return phase


def peak_rss_mb(from_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if from_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def headline(kind: str, timings: List[Tuple[float, float]]) -> float:
    """A part's work units per host-second, or its median ms per unit."""
    if kind == "rate":
        return sum(units for units, _ in timings) / sum(seconds for _, seconds in timings)
    return statistics.median(seconds / units for units, seconds in timings) * 1000.0


def measured(workload: Any, checks: Checks, seconds: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    setups = [ref_seconds(workload.setup)[1:] for _ in range(SETUP_REPEATS)]
    phase = run_phase(workload, checks, seconds, first_index=0)
    workload.finish(checks)
    workload.close()
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "ops_per_ref_s": 1.0 / statistics.median(phase.ref_latencies),
        "peak_rss_mb": peak_rss_mb(workload.rss_from_children),
    }
    top = top_percentile(phase.latencies)
    loops = [host * REF_LOOP_S / ref for host, ref in zip(phase.latencies, phase.ref_latencies)]
    detail = {
        "samples": {"setup": len(setups), "ops": len(phase.latencies)},
        "setup_s_each": {"host": [host for host, _ in setups], "ref": [ref for _, ref in setups]},
        "ops_per_s": len(phase.latencies) / sum(phase.latencies),
        "ref_loop_ms": {"min": min(loops) * 1000.0, "p50": statistics.median(loops) * 1000.0},
        "run_wall_s": sum(phase.latencies),
        "op_ms": {
            "min": min(phase.latencies) * 1000.0,
            "p10": statistics.quantiles(phase.latencies, n=10, method="inclusive")[0] * 1000.0,
            "p50": statistics.median(phase.latencies) * 1000.0,
            "mean": statistics.fmean(phase.latencies) * 1000.0,
            "top": {"p": top[0], "value": top[1] * 1000.0} if top is not None else None,
        },
        "op_ref_ms_p50": statistics.median(phase.ref_latencies) * 1000.0,
        "headline": {
            name: headline(kind, phase.parts[part]) for name, part, kind in workload.headlines
        },
    }
    return metrics, detail


def traced(
    workload: Any, checks: Checks, seconds: float, spans_out: str
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    workload.setup()
    untraced = run_phase(workload, checks, seconds / 2, first_index=0)
    tracer = Tracer(TARGETS)
    workload.trace_begin()
    tracer.install()
    try:
        traced_phase = run_phase(
            workload, checks, seconds / 2, first_index=len(untraced.latencies), tracer=tracer
        )
    finally:
        tracer.uninstall()
    extra = workload.trace_extra()
    workload.finish(checks)
    workload.close()
    ops = len(traced_phase.latencies)
    extra["trace.overhead_ratio"] = statistics.median(
        traced_phase.ref_latencies
    ) / statistics.median(untraced.ref_latencies)
    metrics = per_layer_metrics(tracer, ops, extra)
    tracer.dump(spans_out)
    detail = {
        "samples": {"untraced_ops": len(untraced.latencies), "traced_ops": ops},
        "spans": len(tracer.spans),
        "spans_out": os.path.relpath(spans_out),
    }
    return metrics, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still unwinds: servers are stopped, scratch removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing, so dict and set layouts repeat run to run.
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED="0"))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no repro package under {src}; run from the repository root", file=sys.stderr)
        return 2
    # The benchmark's own bytecode cache, whatever the caller's settings.
    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    sys.pycache_prefix = os.path.join(workdir, "pycache-main")
    sys.dont_write_bytecode = False
    sys.path.insert(0, src)

    from scenarios import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(BENCH_DIR, "pins.json"), "r", encoding="utf-8") as handle:
        pins = json.load(handle)

    host = host_block(root, pin_to_one_cpu())
    ctx = Context(root, workdir, args.seed, pins)
    workload = WORKLOADS[args.workload](ctx)
    checks = Checks()
    try:
        for module in workload.modules:
            importlib.import_module(module)
        if args.trace:
            out_dir = os.path.join(root, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_out = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans.json")
            metrics, detail = traced(workload, checks, args.seconds, spans_out)
            units = dict(PER_LAYER)
        else:
            metrics, detail = measured(workload, checks, args.seconds)
            units = dict(END_TO_END)
    except Exception:
        traceback.print_exc()
        print("error: the workload raised; no result", file=sys.stderr)
        return 1
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    report = {
        "perfbench": 1,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host,
        "pinned_outputs": workload.pinned,
        "error_rate": checks.error_rate,
        "check_failures": checks.notes,
        **detail,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result_line(checks, metrics, units)))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
