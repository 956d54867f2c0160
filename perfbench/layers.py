"""Which ``repro`` functions the traced run wraps, and the per-layer
metrics computed from their spans.

Every metric is normalised per operation of the workload (one sweep, one
CLI invocation, one transient, one HTTP round trip), so a run that fits
more operations into its time does not read as more work.  A layer the
workload never enters reads 0: that is the prediction the layer table in
README.md makes for it.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Sequence, Tuple

from tracer import Target, Tracer

# -- observers: turn return values into counters ------------------------------


def _replayed(tracer: Tracer, args: Sequence[Any], report: Any) -> None:
    tracer.count("simulation.requests", report.requests)
    tracer.count("simulation.simulated_ms", report.simulated_ms)
    tracer.count("simulation.cache_hits", report.cache_hit_ratio * report.requests)


def _resilient(tracer: Tracer, args: Sequence[Any], report: Any) -> None:
    # run_sweep_cached hands its misses to run_sweep_resilient, so the
    # inner call counts computed tasks and the outer adds the store hits.
    tracer.count("resilience.tasks", len(report.envelopes))
    tracer.count("resilience.retries", report.retries)
    tracer.count("resilience.failed", len(report.failed))


def _cached(tracer: Tracer, args: Sequence[Any], report: Any) -> None:
    tracer.count("resilience.tasks", report.store_hits)


def _got(tracer: Tracer, args: Sequence[Any], payload: Any) -> None:
    tracer.count("store.gets")
    if payload is not None:
        tracer.count("store.hits")


def _put(tracer: Tracer, args: Sequence[Any], path: Any) -> None:
    tracer.count("store.puts")
    tracer.count("store.put_bytes", os.stat(path).st_size)


def _managed(tracer: Tracer, args: Sequence[Any], report: Any) -> None:
    tracer.count("dtm.throttle_events", report.throttle_events)
    tracer.count("dtm.throttled_ms", report.throttled_ms)
    tracer.count("dtm.simulated_ms", report.simulated_ms)


def _fleet(tracer: Tracer, args: Sequence[Any], summary: Any) -> None:
    if summary is not None:
        tracer.count("fleet.drives", summary["drives"])
        tracer.count("fleet.throttle_steps", summary["throttle_steps"])


TARGETS: List[Target] = [
    ("repro.workloads.catalog", "WorkloadSpec.generate", "workloads.generate", None),
    ("repro.workloads.catalog", "WorkloadSpec.build_system", "simulation.build_system", None),
    ("repro.simulation.system", "StorageSystem.run_trace", "simulation.run_trace", _replayed),
    ("repro.simulation.sweep", "_run_workload_task", "simulation.task", None),
    ("repro.simulation.sweep", "build_workload_tasks", "sweep.plan", None),
    ("repro.simulation.sweep", "plan_sweep_workers", "sweep.plan", None),
    ("repro.simulation.resilience", "run_sweep_cached", "resilience.run", _cached),
    ("repro.simulation.resilience", "run_sweep_resilient", "resilience.run", _resilient),
    ("repro.simulation.sweep", "workload_task_key", "store.key", None),
    ("repro.fleet.sweep", "fleet_task_key", "store.key", None),
    ("repro.store.store", "ResultStore.get", "store.get", _got),
    ("repro.store.store", "ResultStore.put", "store.put", _put),
    ("repro.simulation.sweep", "workload_result_to_payload", "codec.encode", None),
    ("repro.store.canonical", "stable_json", "codec.encode", None),
    ("repro.simulation.sweep", "workload_result_from_payload", "codec.decode", None),
    ("repro.cli", "main", "cli.main", None),
    ("repro.thermal.network", "ThermalNetwork.step", "thermal.step", None),
    ("repro.thermal.network", "ThermalNetwork.steady_state", "thermal.steady_state", None),
    ("repro.dtm.controller", "ThermallyManagedSystem.run_trace", "dtm.run_trace", _managed),
    ("repro.fleet.coupling", "rack_profile", "fleet.rack_profile", None),
    ("repro.fleet.dtm", "coordinate_rack", "fleet.coordinate_rack", None),
    ("repro.fleet.sweep", "_run_rack_task", "fleet.rack_task", None),
    ("repro.fleet.sweep", "fleet_summary", "fleet.summary", _fleet),
]

#: Span names recorded by the benchmark itself rather than by a wrapper.
OP_SPAN = "bench.op"
CLI_IMPORT_SPAN = "cli.import"

#: Every per-layer metric, in report order: (name, unit).
PER_LAYER: List[Tuple[str, str]] = [
    ("workloads.generate_s", "s"),
    ("workloads.generate_calls", "count"),
    ("simulation.run_trace_s", "s"),
    ("simulation.host_us_per_request", "us"),
    ("simulation.build_system_s", "s"),
    ("simulation.build_system_calls", "count"),
    ("simulation.task_self_s", "s"),
    ("simulation.requests", "count"),
    ("simulation.simulated_ms", "ms"),
    ("simulation.cache_hit_ratio", "ratio"),
    ("sweep.plan_s", "s"),
    ("resilience.self_s", "s"),
    ("resilience.tasks", "count"),
    ("resilience.retries", "count"),
    ("resilience.failed", "count"),
    ("store.key_s", "s"),
    ("store.get_s", "s"),
    ("store.gets", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.put_s", "s"),
    ("store.puts", "count"),
    ("store.put_bytes", "bytes"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("cli.import_s", "s"),
    ("cli.modules_imported", "count"),
    ("cli.main_s", "s"),
    ("thermal.step_s", "s"),
    ("thermal.steps", "count"),
    ("thermal.us_per_step", "us"),
    ("thermal.steady_state_s", "s"),
    ("thermal.steady_state_calls", "count"),
    ("dtm.run_trace_self_s", "s"),
    ("dtm.throttle_events", "count"),
    ("dtm.throttled_fraction", "ratio"),
    ("fleet.rack_profile_s", "s"),
    ("fleet.rack_profile_calls", "count"),
    ("fleet.coordinate_rack_s", "s"),
    ("fleet.rack_task_self_s", "s"),
    ("fleet.throttle_steps", "count"),
    ("fleet.drives", "count"),
    ("service.submit_ms", "ms"),
    ("service.complete_wait_ms", "ms"),
    ("service.notify_lag_ms", "ms"),
    ("service.fetch_ms", "ms"),
    ("service.dedup_rt_ms", "ms"),
    ("service.dedup_hits", "count"),
    ("service.store_hits", "count"),
    ("service.store_misses", "count"),
    ("service.non2xx", "count"),
    ("trace.op_wall_s", "s"),
    ("trace.attributed_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    tracer: Tracer, ops: int, extra: Dict[str, float]
) -> Dict[str, float]:
    """Per-operation layer metrics from a traced phase of ``ops`` operations.

    ``extra`` supplies what spans cannot: client-side service figures,
    ``/metrics`` scrapes, ``cli.modules_imported`` and
    ``trace.overhead_ratio``.
    """
    totals = tracer.totals()
    counters = tracer.counters

    def self_s(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0))[1] for name in names) / ops

    def calls(name: str) -> float:
        return totals.get(name, (0, 0.0))[0] / ops

    def count(name: str) -> float:
        return counters.get(name, 0.0) / ops

    requests = counters.get("simulation.requests", 0.0)
    run_trace_total = totals.get("simulation.run_trace", (0, 0.0))[1]
    steps = totals.get("thermal.step", (0, 0.0))
    gets = counters.get("store.gets", 0.0)
    op_wall = sum(end - start for _, _, name, start, end in tracer.spans if name == OP_SPAN)
    unattributed = self_s(OP_SPAN)
    metrics = {
        "workloads.generate_s": self_s("workloads.generate"),
        "workloads.generate_calls": calls("workloads.generate"),
        "simulation.run_trace_s": self_s("simulation.run_trace"),
        "simulation.host_us_per_request": _ratio(run_trace_total * 1e6, requests),
        "simulation.build_system_s": self_s("simulation.build_system"),
        "simulation.build_system_calls": calls("simulation.build_system"),
        "simulation.task_self_s": self_s("simulation.task"),
        "simulation.requests": count("simulation.requests"),
        "simulation.simulated_ms": count("simulation.simulated_ms"),
        "simulation.cache_hit_ratio": _ratio(
            counters.get("simulation.cache_hits", 0.0), requests
        ),
        "sweep.plan_s": self_s("sweep.plan"),
        "resilience.self_s": self_s("resilience.run"),
        "resilience.tasks": count("resilience.tasks"),
        "resilience.retries": count("resilience.retries"),
        "resilience.failed": count("resilience.failed"),
        "store.key_s": self_s("store.key"),
        "store.get_s": self_s("store.get"),
        "store.gets": count("store.gets"),
        "store.hit_ratio": _ratio(counters.get("store.hits", 0.0), gets),
        "store.put_s": self_s("store.put"),
        "store.puts": count("store.puts"),
        "store.put_bytes": count("store.put_bytes"),
        "codec.encode_s": self_s("codec.encode"),
        "codec.decode_s": self_s("codec.decode"),
        "cli.import_s": self_s(CLI_IMPORT_SPAN),
        "cli.main_s": self_s("cli.main"),
        "thermal.step_s": self_s("thermal.step"),
        "thermal.steps": steps[0] / ops,
        "thermal.us_per_step": _ratio(steps[1] * 1e6, steps[0]),
        "thermal.steady_state_s": self_s("thermal.steady_state"),
        "thermal.steady_state_calls": calls("thermal.steady_state"),
        "dtm.run_trace_self_s": self_s("dtm.run_trace"),
        "dtm.throttle_events": count("dtm.throttle_events"),
        "dtm.throttled_fraction": _ratio(
            counters.get("dtm.throttled_ms", 0.0),
            counters.get("dtm.simulated_ms", 0.0),
        ),
        "fleet.rack_profile_s": self_s("fleet.rack_profile"),
        "fleet.rack_profile_calls": calls("fleet.rack_profile"),
        "fleet.coordinate_rack_s": self_s("fleet.coordinate_rack"),
        "fleet.rack_task_self_s": self_s("fleet.rack_task"),
        "fleet.throttle_steps": count("fleet.throttle_steps"),
        "fleet.drives": count("fleet.drives"),
        "trace.op_wall_s": op_wall / ops,
        "trace.attributed_s": op_wall / ops - unattributed,
        "trace.unattributed_s": unattributed,
    }
    for name, _ in PER_LAYER:
        metrics.setdefault(name, 0.0)
    metrics.update(extra)
    return metrics
