"""Byte pins on the exact replay engine.

The event-driven (``exact``) engine produces the Figure-4 statistics, and
every speed-up of it must leave its results *bit-for-bit* unchanged.  The
vectorized differential suite covers only the RAID-0 workloads; these
pins cover the whole catalog, each workload's 4-rung RPM ladder at two
seeds, plus one fault-injected task, one telemetry-instrumented task and
one throttling DTM replay, by the SHA-256 of their canonical bytes.

A pin may only change together with a deliberate model change.  To
re-derive the digests, run this module as a script::

    PYTHONPATH=src python tests/test_replay_pins.py
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict

import pytest

from repro.faults import FaultConfig
from repro.simulation.sweep import results_json_bytes, sweep_workloads
from repro.store import stable_json
from repro.workloads import catalog, workload

REQUESTS = 500
SEEDS = (1, 2)
RPM_STEPS = 4


def _sweep_bytes(name: str, seed: int, **options) -> bytes:
    results = sweep_workloads(
        [name],
        rpm_steps=RPM_STEPS,
        requests=REQUESTS,
        seed=seed,
        workers=1,
        backend="serial",
        **options,
    )
    return results_json_bytes(results)


def _faults_bytes() -> bytes:
    faults = FaultConfig(seed=5, media_rate=0.03, servo_rate=0.01)
    return _sweep_bytes("tpcc", 3, fault_config=faults)


def _telemetry_bytes() -> bytes:
    return _sweep_bytes("oltp", 4, telemetry=True, trace_capacity=256)


def _dtm_bytes() -> bytes:
    """A small search_engine replay that throttles tens of times."""
    from repro.dtm import DTMPolicy, ThermallyManagedSystem
    from repro.thermal.model import DriveThermalModel

    spec = workload("search_engine")
    trace = spec.generate(num_requests=1500, seed=6)
    system = spec.build_system(rpm=24500.0)
    thermal = DriveThermalModel(platter_diameter_in=2.6, rpm=24500.0, vcm_active=False)
    thermal.settle()
    thermal.set_operating_state(vcm_active=True)
    policy = DTMPolicy(
        envelope_c=thermal.air_c() + 0.05,
        trigger_margin_c=0.01,
        resume_margin_c=0.04,
        check_interval_ms=20.0,
    )
    report = ThermallyManagedSystem(system, thermal, policy).run_trace(trace)
    document = {
        "samples_ms": list(report.stats.samples_ms),
        "max_air_c": report.max_air_c,
        "throttled_ms": report.throttled_ms,
        "simulated_ms": report.simulated_ms,
        "throttle_events": report.throttle_events,
        "emergency_events": report.emergency_events,
    }
    return stable_json(document).encode("utf-8")


def _cases() -> Dict[str, Callable[[], bytes]]:
    cases: Dict[str, Callable[[], bytes]] = {}
    for name in sorted(catalog()):
        for seed in SEEDS:
            cases[f"{name}-seed{seed}"] = (
                lambda name=name, seed=seed: _sweep_bytes(name, seed)
            )
    cases["tpcc-faults"] = _faults_bytes
    cases["oltp-telemetry"] = _telemetry_bytes
    cases["search_engine-dtm"] = _dtm_bytes
    return cases


#: SHA-256 of each case's canonical bytes.
PINS = {
    "oltp-seed1": "a804cad386d37749d89b75cee0ee5f86f955ee84839a0c0b185b062b334916e6",
    "oltp-seed2": "c00cecfa416124b0fa9c28f5b1d7b9f565ff0d72a5007966adadc16e68c70ca6",
    "oltp-telemetry": "8f4615c1f9726b5de71c2affad22e4797765ad3a076d33eb517a16d8518b9749",
    "openmail-seed1": "b1c7cba7e8daea7a09abfc8504f5c6bda4b874391a69755c7d365975693644b5",
    "openmail-seed2": "d024029716380a67a9eaf7aa8101a40b031079c2502af07244abf9413de6a644",
    "search_engine-dtm": "989f5dc44c53415bd4a2d833ee32f8d225b5b375e9d338eb455ab1caf1e59b6d",
    "search_engine-seed1": "e7a4a3a76f88f9cb72678a9395da5a4a1749a30d598fc0d489107f7322aec7aa",
    "search_engine-seed2": "c714131313effd331bab67ceeb867948f07c7c860d444fe1e40e738b706af12d",
    "tpcc-faults": "90ef0be107cf99185f76fc494d5c126c4c538d2a1af2abbf550c65badf079b7f",
    "tpcc-seed1": "5f822d65afb32c1bec4f09c1d16617206d88ba3ac043b1c48884a97f5a2c27cd",
    "tpcc-seed2": "6817a5848f2e55c8665fbcee9339c4ed8937ee606801146bbe5b1e39415eb0f3",
    "tpch-seed1": "d902d87153e3ea338a919b43af62d68a38e9da0f7c7ff74c18d03b4eb7a0d1ff",
    "tpch-seed2": "9b5ce16bd61a17796d83709cba3314e41d98e9c314bbdd7b7dff3937efe90aba",
}


@pytest.mark.parametrize("case", sorted(_cases()))
def test_exact_replay_bytes_are_pinned(case):
    digest = hashlib.sha256(_cases()[case]()).hexdigest()
    assert digest == PINS[case], f"{case}: exact-engine output changed"


def test_pins_cover_every_case():
    assert sorted(PINS) == sorted(_cases())


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for case, compute in sorted(_cases().items()):
        print(f'    "{case}": "{hashlib.sha256(compute()).hexdigest()}",')
