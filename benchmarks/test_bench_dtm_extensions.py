"""Extension benchmarks: the §5.4 DTM design space.

The paper leaves DTM control policies to future work; these benches
compare the mechanisms it sketches on one average-case design (a 2.6-inch
drive at 26K RPM — far beyond the ~15K envelope design):

* reactive gating vs request spacing vs a DRPM ladder,
* the mirrored pair with alternating reads,
* the cache-disk pair (small fast platter fronting a big slow one),
* energy accounting across the RPM sweep.
"""

from conftest import run_once

from repro.constants import THERMAL_ENVELOPE_C
from repro.dtm import (
    AlternatingMirror,
    CacheDiskPair,
    LadderPolicy,
    PolicyManagedSystem,
    ReactiveGatePolicy,
    SpacingPolicy,
    drpm_profile,
    mirror_headroom_rpm,
)
from repro.reporting import format_table
from repro.simulation.power import power_report
from repro.thermal import DriveThermalModel, max_rpm_within_envelope
from repro.workloads import WorkloadShape, generate_trace, workload

RPM = 26000.0
#: Gate-only policies cannot recover above the VCM-off limit (~25.3K RPM:
#: the cooling-mode steady state would itself exceed the envelope — the
#: paper's scenario-(b) observation), so they manage a slightly tamer
#: average-case design; the DRPM ladder can hold the full 26K.
RPM_GATED = 24500.0


def _managed_run(policy, rpm=RPM_GATED):
    spec = workload("search_engine")
    system = spec.build_system(rpm=rpm)
    thermal = DriveThermalModel(platter_diameter_in=2.6, rpm=rpm, vcm_active=False)
    # Warm-start just below the envelope (a drive already in sustained
    # service): short traces cannot heat the minutes-scale casting mass,
    # so a cold start would never exercise the policies.
    thermal.set_vcm_duty(0.5)
    steady = thermal.network.steady_state()
    offset = (THERMAL_ENVELOPE_C - 0.1) - steady["air"]
    thermal.network.set_temperatures(
        {name: temp + offset for name, temp in steady.items()}
    )
    thermal.set_operating_state(vcm_active=True)
    managed = PolicyManagedSystem(system, thermal, policy, check_interval_ms=10.0)
    # Double the arrival rate so the seek duty genuinely pushes the
    # average-case design against the envelope.
    trace = spec.generate(num_requests=2500, seed=21, rate_scale=2.0)
    report = managed.run_trace(trace)
    return report, managed


def test_policy_comparison(benchmark, emit):
    def run():
        # The workload's seek duty pushes the 26K design past the envelope,
        # forcing every policy to act; resume thresholds sit above the
        # cooling-mode steady temperature (~44.9 C) so recovery is possible.
        policies = {
            "reactive gate": ReactiveGatePolicy(
                envelope_c=THERMAL_ENVELOPE_C,
                trigger_margin_c=0.02,
                resume_margin_c=0.20,
            ),
            "request spacing": SpacingPolicy(
                envelope_c=THERMAL_ENVELOPE_C, band_c=0.25, max_gap_ms=8.0
            ),
            "DRPM ladder": LadderPolicy(
                drpm_profile(RPM, levels=4, step_rpm=3000),
                envelope_c=THERMAL_ENVELOPE_C,
                band_c=0.25,
            ),
        }
        rows = {}
        for name, policy in policies.items():
            rpm = RPM if name == "DRPM ladder" else RPM_GATED
            report, managed = _managed_run(policy, rpm=rpm)
            rows[name] = (
                report.stats.mean_ms(),
                report.max_air_c,
                report.throttled_fraction,
                managed.rpm_changes,
            )
        return rows

    rows = run_once(benchmark, run)
    emit(
        "dtm_policy_comparison",
        format_table(
            ["policy", "mean ms", "max air C", "gated frac", "rpm changes"],
            [
                [name, f"{m:.2f}", f"{a:.3f}", f"{g:.3f}", c]
                for name, (m, a, g, c) in rows.items()
            ],
        ),
    )
    # Every policy respects the (tightened) limit with only transient
    # overshoot from the controller's sampling interval.
    for name, (mean, max_air, gated, changes) in rows.items():
        assert max_air < THERMAL_ENVELOPE_C + 0.6
        assert mean > 0
    # The ladder actually exercised the ladder.
    assert rows["DRPM ladder"][3] >= 1


def test_mirrored_pair(benchmark, emit):
    def run():
        mirror = AlternatingMirror(rpm=RPM, switch_period_ms=1000.0)
        shape = WorkloadShape(
            name="mirror-bench",
            mean_interarrival_ms=3.0,
            read_fraction=0.8,
            size_mix=((8, 0.6), (16, 0.4)),
        )
        trace = generate_trace(shape, 2500, mirror.geometry.logical_sectors, seed=22)
        report = mirror.run_trace(trace)
        headroom = mirror_headroom_rpm(2.6)
        return report, headroom

    report, headroom = run_once(benchmark, run)
    envelope_rpm = max_rpm_within_envelope(2.6)
    slack_rpm = max_rpm_within_envelope(2.6, vcm_active=False)
    emit(
        "dtm_mirroring",
        format_table(
            ["metric", "value"],
            [
                ["mean response ms", f"{report.stats.mean_ms():.2f}"],
                ["max air C", f"{report.max_air_c:.2f}"],
                ["read alternations", report.switches],
                ["mirror0 seek duty", f"{report.per_disk_seek_duty[0]:.3f}"],
                ["mirror1 seek duty", f"{report.per_disk_seek_duty[1]:.3f}"],
                ["envelope-design RPM", f"{envelope_rpm:.0f}"],
                ["half-duty mirror RPM", f"{headroom:.0f}"],
                ["full-slack RPM", f"{slack_rpm:.0f}"],
            ],
        ),
    )
    assert envelope_rpm < headroom < slack_rpm
    assert report.switches > 0


def test_cache_disk_pair(benchmark, emit):
    def run():
        shape = WorkloadShape(
            name="cache-bench",
            mean_interarrival_ms=5.0,
            read_fraction=0.9,
            size_mix=((8, 1.0),),
            hot_fraction=0.9,
            hot_region_fraction=0.001,
        )
        pair = CacheDiskPair()
        trace = generate_trace(shape, 2000, pair.logical_sectors, seed=23)
        cached = pair.run_trace(trace)
        lone = CacheDiskPair()
        lone.map.max_regions = 0  # big disk only
        lone_report = lone.run_trace(generate_trace(shape, 2000, lone.logical_sectors, seed=23))
        return cached, lone_report

    cached, lone = run_once(benchmark, run)
    emit(
        "dtm_cache_disk",
        format_table(
            ["configuration", "mean ms", "hit ratio", "fast RPM", "slow RPM"],
            [
                [
                    "cache-disk pair",
                    f"{cached.stats.mean_ms():.2f}",
                    f"{cached.hit_ratio:.2f}",
                    f"{cached.fast_rpm:.0f}",
                    f"{cached.slow_rpm:.0f}",
                ],
                [
                    "big disk alone",
                    f"{lone.stats.mean_ms():.2f}",
                    f"{lone.hit_ratio:.2f}",
                    "-",
                    f"{lone.slow_rpm:.0f}",
                ],
            ],
        ),
    )
    assert cached.fast_rpm > 2 * cached.slow_rpm
    assert cached.hit_ratio > 0.4
    assert cached.stats.mean_ms() < lone.stats.mean_ms()


def test_energy_accounting(benchmark, emit):
    spec = workload("oltp")

    def run():
        trace = spec.generate(num_requests=2000, seed=24)
        rows = []
        for rpm in spec.rpm_sweep(3):
            system = spec.build_system(rpm)
            report = system.run_trace(trace)
            power = power_report(
                system.disks[0], report.simulated_ms, diameter_in=spec.diameter_in,
                platter_count=spec.platters,
            )
            rows.append(
                (rpm, report.mean_response_ms(), power.average_w, power.seek_duty)
            )
        return rows

    rows = run_once(benchmark, run)
    emit(
        "dtm_energy_vs_rpm",
        format_table(
            ["RPM", "mean ms", "avg W/disk", "seek duty"],
            [[f"{r:.0f}", f"{m:.2f}", f"{w:.2f}", f"{d:.3f}"] for r, m, w, d in rows],
        )
        + "\n(the performance of higher RPM is bought with superlinear power"
        "\n— the thermal story of the paper in energy terms)",
    )
    watts = [w for _, _, w, _ in rows]
    means = [m for _, m, _, _ in rows]
    assert watts == sorted(watts)
    assert means == sorted(means, reverse=True)
    # Windage superlinearity: +10K RPM from base should more than double
    # nothing less than the windage-dominated growth trend.
    assert watts[2] > watts[0] * 1.2
