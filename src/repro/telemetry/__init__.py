"""Simulator observability: metrics, structured traces, time-series probes.

The subsystem has three legs, bundled behind one :class:`Telemetry`
facade that instrumented components share:

* :class:`~repro.telemetry.registry.MetricsRegistry` — counters, gauges,
  histograms and phase timers;
* :class:`~repro.telemetry.trace.EventTrace` — a bounded ring buffer of
  structured simulation events;
* :class:`~repro.telemetry.probes.ProbeSet` — periodic time-series
  sampling of temperature, RPM, queue depth and utilization.

**Off by default, off means free.**  Instrumented components take an
``Optional[Telemetry]`` defaulting to ``None`` and guard every hook with
a single ``is not None`` check, so the untelemetered hot path pays one
pointer comparison per hook.  A :class:`Telemetry` object can also be *disabled*
(``enabled=False``) which turns its ``record``/``count``/``observe``
helpers into early returns, for callers that prefer unconditional calls;
components normalize it to ``None`` (:func:`maybe`), and a tier-1 spy
test asserts a disabled replay never reaches the registry, the trace or
the probe set.

Typical use::

    from repro.telemetry import Telemetry

    tel = Telemetry(probe_interval_ms=50.0)
    system = build_system(..., telemetry=tel)
    system.run_trace(trace)
    tel.registry.as_dict()          # metric snapshot
    tel.trace.events("cache_miss")  # structured events
    tel.probes.probe("disk0.queue_depth").series

Exporters (JSON / CSV / Prometheus text / ASCII sparklines) live in
:mod:`repro.reporting.telemetry_export` and
:mod:`repro.reporting.sparkline`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.telemetry.probes import (
    DEFAULT_PROBE_INTERVAL_MS,
    Probe,
    ProbeSet,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryError,
    Timer,
)
from repro.telemetry.trace import (
    DEFAULT_TRACE_CAPACITY,
    KNOWN_KINDS,
    EventTrace,
    TraceEvent,
)

__all__ = [
    "Telemetry",
    "TelemetryError",
    "maybe",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "EventTrace",
    "TraceEvent",
    "KNOWN_KINDS",
    "DEFAULT_TRACE_CAPACITY",
    "Probe",
    "ProbeSet",
    "DEFAULT_PROBE_INTERVAL_MS",
]


class Telemetry:
    """Facade bundling a registry, a trace and a probe set.

    Args:
        enabled: when False, the convenience helpers below are no-ops
            (components that hold a disabled Telemetry still skip work).
        trace_capacity: ring-buffer bound for the event trace.
        probe_interval_ms: sampling period for the probe set.
        probe_capacity: per-probe retained-sample bound.
    """

    def __init__(
        self,
        enabled: bool = True,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        probe_interval_ms: float = DEFAULT_PROBE_INTERVAL_MS,
        probe_capacity: int = 100_000,
    ) -> None:
        self.enabled = bool(enabled)
        self.registry = MetricsRegistry()
        self.trace = EventTrace(capacity=trace_capacity)
        self.probes = ProbeSet(
            interval_ms=probe_interval_ms, capacity=probe_capacity
        )

    # -- convenience helpers (honour the enabled flag) --------------------------

    def record(
        self, time_ms: float, kind: str, subject: str = "", **fields: Any
    ) -> None:
        """Record a trace event unless disabled."""
        if self.enabled:
            self.trace.record(time_ms, kind, subject, **fields)

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter unless disabled."""
        if self.enabled:
            self.registry.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Observe a histogram sample unless disabled."""
        if self.enabled:
            self.registry.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge unless disabled."""
        if self.enabled:
            self.registry.gauge(name).set(value)

    def as_dict(self) -> dict:
        """Full JSON-serializable snapshot: metrics + trace + probes."""
        return {
            "schema": "repro.telemetry/1",
            "enabled": self.enabled,
            "metrics": self.registry.as_dict(),
            "trace": {
                "capacity": self.trace.capacity,
                "recorded": self.trace.recorded,
                "dropped": self.trace.dropped,
                "events": self.trace.as_dicts(),
            },
            "probes": self.probes.as_dict(),
        }


def maybe(telemetry: Optional[Telemetry]) -> Optional[Telemetry]:
    """Normalize an optional telemetry handle: disabled behaves like None.

    Instrumented components call this once at construction so their
    per-event guard stays a single ``is not None`` check.
    """
    if telemetry is not None and not telemetry.enabled:
        return None
    return telemetry
