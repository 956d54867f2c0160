"""Byte pins on the thermal integrator and everything stepped through it.

The lumped network's backward-Euler step feeds the Figure-1 warm-up, the
§5 throttling studies, the DTM controllers and (through the memoized
steady states and heat terms) the rack-coupled fleet.  A speed-up of any
of them must leave every float *bit-for-bit* unchanged, so these pins
hash ``float.hex`` renderings rather than comparing at a tolerance.

A pin may only change together with a deliberate model change.  To
re-derive the digests, run this module as a script::

    PYTHONPATH=src python tests/test_thermal_pins.py
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict

import pytest

from repro.store import stable_json


def _hexed(value: Any) -> Any:
    """``value`` with every float replaced by its exact ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(item) for item in value]
    return value


def _canonical(document: Any) -> bytes:
    return stable_json(_hexed(document)).encode("utf-8")


def _transient_document(result) -> Dict[str, Any]:
    return {"times_s": result.times_s, "temperatures": result.temperatures}


def _figure1_hour() -> bytes:
    """The Figure-1 warm-up: one hour at 600 steps/min, every minute."""
    from repro.drives import cheetah15k3

    model = cheetah15k3.thermal_model()
    result = model.transient(3600.0, dt_s=0.1, record_every=600, from_ambient=True)
    return _canonical(_transient_document(result))


def _transient_changes() -> bytes:
    """A transient whose RPM, VCM state, ambient and dt change mid-run."""
    from repro.thermal.model import DriveThermalModel

    model = DriveThermalModel(platter_diameter_in=2.6, rpm=15000.0)
    legs = [model.transient(60.0, dt_s=0.1, from_ambient=True)]
    model.set_operating_state(rpm=24500.0)
    legs.append(model.transient(30.0, dt_s=0.1))
    model.set_ambient(35.0)
    legs.append(model.transient(20.0, dt_s=0.05, record_every=3))
    model.set_operating_state(vcm_active=False)
    model.set_vcm_duty(0.375)
    legs.append(model.transient(15.0, dt_s=0.25))
    model.set_operating_state(rpm=12000.0, vcm_active=True)
    for dt_s in (0.1, 0.02, 0.1, 0.5):
        model.network.step(dt_s)
    document = {
        "legs": [_transient_document(leg) for leg in legs],
        "final": [float(t) for t in model.network.temperatures],
        "steady": model.steady_state(),
    }
    return _canonical(document)


def _throttle_document(cycles) -> list:
    return [[c.t_cool_s, c.t_heat_s, c.min_air_c] for c in cycles]


def _throttle_vcm_only() -> bytes:
    from repro.dtm import paper_scenario_vcm_only, throttle_cycle, throttling_ratio_curve

    scenario = paper_scenario_vcm_only()
    curve = throttling_ratio_curve(scenario, (0.5, 2.0, 8.0), dt_s=0.02)
    sustained = throttle_cycle(scenario, 1.0, dt_s=0.02, mode="sustained")
    return _canonical(_throttle_document(curve + [sustained]))


def _throttle_vcm_and_rpm() -> bytes:
    from repro.dtm import paper_scenario_vcm_and_rpm, throttling_ratio_curve

    curve = throttling_ratio_curve(paper_scenario_vcm_and_rpm(), (0.5, 4.0), dt_s=0.02)
    return _canonical(_throttle_document(curve))


def _policy_managed(policy_name: str) -> bytes:
    """A search_engine replay under a pluggable policy that acts often."""
    from repro.dtm import LadderPolicy, PolicyManagedSystem, ReactiveGatePolicy, drpm_profile
    from repro.thermal.model import DriveThermalModel
    from repro.workloads import workload

    rpm = 24500.0
    spec = workload("search_engine")
    trace = spec.generate(num_requests=1500, seed=6)
    system = spec.build_system(rpm=rpm)
    thermal = DriveThermalModel(platter_diameter_in=2.6, rpm=rpm, vcm_active=False)
    thermal.settle()
    thermal.set_operating_state(vcm_active=True)
    # Envelopes just above the settled air temperature: the ladder
    # changes speed tens of times, the gate throttles tens of times.
    envelope_c = thermal.air_c() + 0.06
    if policy_name == "ladder":
        policy = LadderPolicy(
            drpm_profile(rpm, levels=3, step_rpm=4000), envelope_c=envelope_c, band_c=0.06
        )
    else:
        policy = ReactiveGatePolicy(
            envelope_c=envelope_c,
            trigger_margin_c=0.01,
            resume_margin_c=0.04,
            low_rpm=16500.0,
            full_rpm=rpm,
        )
    managed = PolicyManagedSystem(system, thermal, policy, check_interval_ms=20.0)
    report = managed.run_trace(trace)
    document = {
        "samples_ms": list(report.stats.samples_ms),
        "max_air_c": report.max_air_c,
        "throttled_ms": report.throttled_ms,
        "simulated_ms": report.simulated_ms,
        "throttle_events": report.throttle_events,
        "rpm_changes": managed.rpm_changes,
        "final_c": [float(t) for t in thermal.network.temperatures],
    }
    return _canonical(document)


def _fleet_2rack() -> bytes:
    """The ``tests/golden/fleet_2rack.json`` configuration, canonical bytes."""
    from repro.faults import FaultConfig
    from repro.fleet import (
        FleetDTMPolicy,
        ReliabilityParams,
        TieringPolicy,
        build_rack_tasks,
        uniform_fleet,
    )
    from repro.fleet.sweep import _run_rack_task, fleet_results_json_bytes

    fleet = uniform_fleet(
        racks=2,
        enclosures_per_rack=4,
        drives_per_enclosure=3,
        airflow_m3_per_s=0.018,
        cooling_budget_w=200.0,
        recirculation=0.25,
    )
    tasks = build_rack_tasks(
        fleet,
        policy=FleetDTMPolicy(),
        reliability=ReliabilityParams(),
        tiering=TieringPolicy(extents=48, seed=7, target_utilization=0.7),
        fault_config=FaultConfig(seed=13, media_rate=0.05, servo_rate=0.01),
        accesses_per_drive=64,
    )
    return fleet_results_json_bytes([_run_rack_task(task) for task in tasks])


def _cases() -> Dict[str, Callable[[], bytes]]:
    return {
        "figure1-hour": _figure1_hour,
        "transient-changes": _transient_changes,
        "throttle-vcm-only": _throttle_vcm_only,
        "throttle-vcm-and-rpm": _throttle_vcm_and_rpm,
        "policy-ladder": lambda: _policy_managed("ladder"),
        "policy-reactive-gate": lambda: _policy_managed("gate"),
        "fleet-2rack": _fleet_2rack,
    }


#: SHA-256 of each case's canonical bytes.
PINS = {
    "figure1-hour": "88fab4879def16022f3f81aa86c50fdd663de254cec030d5d15b4e07dfefcdc6",
    "fleet-2rack": "458130b7cceb9d68ea2b8ebb86b047efc22738f430169fc8c3e4a2783a5db9fd",
    "policy-ladder": "f7e77b7df0dd4b2770a80eee1daf46b94bb198259d31139dd1b7d3dc06bfd435",
    "policy-reactive-gate": "eb1653f0d54ceb6ca4fee4c243efb164473b2ec3342dc062f7c64ec180e57c4c",
    "throttle-vcm-and-rpm": "5de94c3937eb11734281ebe09fb536be38dbb720fac4f5db57f13461912c88d0",
    "throttle-vcm-only": "292609acb8f9b7e40762343ff56839160dae5101800d05768387240c7a370198",
    "transient-changes": "82f6c308b550bfc8e61980644f2f3d440fdf6300046bcdd614d2eaf9cdbdb1d2",
}


@pytest.mark.parametrize("case", sorted(_cases()))
def test_thermal_bytes_are_pinned(case):
    digest = hashlib.sha256(_cases()[case]()).hexdigest()
    assert digest == PINS[case], f"{case}: thermal output changed"


def test_pins_cover_every_case():
    assert sorted(PINS) == sorted(_cases())


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    for case, compute in sorted(_cases().items()):
        print(f'    "{case}": "{hashlib.sha256(compute()).hexdigest()}",')
