"""Tests for the §5.4 extension mechanisms: mirroring, cache-disk pair,
policy-driven control, power accounting, closed-loop workloads, and the
sensitivity study."""

import pytest

from repro.dtm import (
    AlternatingMirror,
    CacheDiskPair,
    ControlAction,
    LadderPolicy,
    PolicyManagedSystem,
    ReactiveGatePolicy,
    SpacingPolicy,
    drpm_profile,
    mirror_headroom_rpm,
)
from repro.errors import DTMError, TraceError
from repro.simulation.array import StorageArray
from repro.simulation.disk import standard_disk
from repro.simulation.events import EventQueue
from repro.simulation.power import energy_per_request_j, power_report
from repro.simulation.raid import Raid1Geometry
from repro.simulation.request import Request
from repro.thermal import (
    DriveThermalModel,
    calibration_sensitivity,
    exponent_sensitivity,
    headline_robust,
    max_rpm_within_envelope,
)
from repro.workloads import WorkloadShape, run_closed_loop, workload


class TestRaid1:
    def build(self):
        events = EventQueue()
        disks = [
            standard_disk(
                name=f"m{i}", events=events, diameter_in=2.6, platters=1,
                kbpi=300, ktpi=10, rpm=10000, zone_count=10,
            )
            for i in range(2)
        ]
        geometry = Raid1Geometry(disk_sectors=disks[0].total_sectors)
        done = []
        array = StorageArray(disks, geometry, events, on_complete=lambda r, t: done.append(r))
        return events, disks, geometry, array, done

    def test_write_goes_to_both(self):
        events, disks, geometry, array, done = self.build()
        array.submit(Request(arrival_ms=0, lba=100, sectors=8, is_write=True))
        events.run()
        assert len(done) == 1
        assert disks[0].stats.writes == 1
        assert disks[1].stats.writes == 1

    def test_read_goes_to_target_only(self):
        events, disks, geometry, array, done = self.build()
        geometry.set_read_target(1)
        array.submit(Request(arrival_ms=0, lba=100, sectors=8))
        events.run()
        assert disks[0].stats.reads == 0
        assert disks[1].stats.reads == 1

    def test_target_validation(self):
        _, _, geometry, _, _ = self.build()
        with pytest.raises(Exception):
            geometry.set_read_target(2)

    def test_logical_capacity_is_one_disk(self):
        _, disks, geometry, _, _ = self.build()
        assert geometry.logical_sectors == disks[0].total_sectors


class TestAlternatingMirror:
    @pytest.fixture(scope="class")
    def outcome(self):
        from repro.workloads import generate_trace

        mirror = AlternatingMirror(rpm=20000, switch_period_ms=500.0)
        shape = WorkloadShape(
            name="mirror-test",
            mean_interarrival_ms=4.0,
            read_fraction=0.8,
            size_mix=((8, 1.0),),
        )
        trace = generate_trace(shape, 800, mirror.geometry.logical_sectors, seed=3)
        return mirror, mirror.run_trace(trace)

    def test_all_requests_complete(self, outcome):
        _, report = outcome
        assert report.stats.count == 800

    def test_alternation_happened(self, outcome):
        _, report = outcome
        assert report.switches >= 2

    def test_reads_spread_over_both_mirrors(self, outcome):
        mirror, _ = outcome
        reads = [d.stats.reads for d in mirror.disks]
        assert min(reads) > 0
        # Roughly balanced: neither mirror served more than ~3x the other.
        assert max(reads) / min(reads) < 3.0

    def test_temperature_tracked(self, outcome):
        _, report = outcome
        assert report.max_air_c > 0
        assert len(report.per_disk_seek_duty) == 2

    def test_switch_period_validated(self):
        with pytest.raises(DTMError):
            AlternatingMirror(rpm=20000, switch_period_ms=0)

    def test_headroom_between_envelope_and_slack(self):
        envelope = max_rpm_within_envelope(2.6)
        slack = max_rpm_within_envelope(2.6, vcm_active=False)
        half_duty = mirror_headroom_rpm(2.6)
        assert envelope < half_duty < slack


class TestCacheDiskPair:
    @pytest.fixture(scope="class")
    def outcome(self):
        from repro.workloads import generate_trace

        pair = CacheDiskPair(big_diameter_in=2.6, small_diameter_in=1.6)
        shape = WorkloadShape(
            name="cache-test",
            mean_interarrival_ms=4.0,
            read_fraction=0.9,
            size_mix=((8, 1.0),),
            hot_fraction=0.9,
            hot_region_fraction=0.002,
        )
        trace = generate_trace(shape, 1200, pair.logical_sectors, seed=4)
        return pair, pair.run_trace(trace)

    def test_fast_disk_spins_faster(self, outcome):
        pair, report = outcome
        assert report.fast_rpm > 2.0 * report.slow_rpm

    def test_hot_reads_become_hits(self, outcome):
        _, report = outcome
        assert report.hit_ratio > 0.3

    def test_accounting_consistent(self, outcome):
        _, report = outcome
        assert report.hits + report.misses + report.writes == report.stats.count

    def test_small_platter_must_be_smaller(self):
        with pytest.raises(DTMError):
            CacheDiskPair(big_diameter_in=1.6, small_diameter_in=2.6)

    def test_hits_faster_than_misses(self):
        from repro.workloads import generate_trace

        # All-read trace with total locality: after the first touch,
        # everything hits the fast disk.
        pair = CacheDiskPair()
        shape = WorkloadShape(
            name="hot",
            mean_interarrival_ms=8.0,
            read_fraction=1.0,
            size_mix=((8, 1.0),),
            hot_fraction=0.95,
            hot_region_fraction=0.0005,
        )
        trace = generate_trace(shape, 600, pair.logical_sectors, seed=5)
        report = pair.run_trace(trace)
        assert report.hit_ratio > 0.5
        # The pair beats a lone big disk on the same trace.
        lone = CacheDiskPair()
        # Re-route everything to the big disk by disabling the map.
        lone.map.max_regions = 0

        trace2 = generate_trace(shape, 600, lone.logical_sectors, seed=5)
        lone_report = lone.run_trace(trace2)
        assert report.stats.mean_ms() < lone_report.stats.mean_ms()


class TestPolicies:
    def test_reactive_gate_hysteresis(self):
        policy = ReactiveGatePolicy(envelope_c=45.0, trigger_margin_c=0.1, resume_margin_c=0.5)
        assert policy.decide(44.0, 0.0).admit
        assert not policy.decide(44.95, 1.0).admit  # crossed trigger
        assert not policy.decide(44.6, 2.0).admit  # still inside hysteresis
        assert policy.decide(44.4, 3.0).admit  # below resume

    def test_reactive_gate_rpm_commands(self):
        policy = ReactiveGatePolicy(
            envelope_c=45.0, low_rpm=15000, full_rpm=25000
        )
        hot = policy.decide(45.0, 0.0)
        assert hot.rpm == 15000 and not hot.admit
        cold = policy.decide(44.0, 1.0)
        assert cold.rpm == 25000 and cold.admit

    def test_reactive_gate_validation(self):
        with pytest.raises(DTMError):
            ReactiveGatePolicy(trigger_margin_c=0.5, resume_margin_c=0.1)
        with pytest.raises(DTMError):
            ReactiveGatePolicy(low_rpm=15000)  # missing full_rpm
        with pytest.raises(DTMError):
            ReactiveGatePolicy(low_rpm=25000, full_rpm=15000)

    def test_spacing_grows_through_band(self):
        policy = SpacingPolicy(envelope_c=45.0, band_c=1.0, max_gap_ms=40.0)
        assert policy.decide(43.5, 0.0).issue_gap_ms == 0.0
        low = policy.decide(44.2, 0.0).issue_gap_ms
        high = policy.decide(44.8, 0.0).issue_gap_ms
        assert 0 < low < high <= 40.0
        assert not policy.decide(45.0, 0.0).admit

    def test_spacing_validation(self):
        with pytest.raises(DTMError):
            SpacingPolicy(band_c=0)
        with pytest.raises(DTMError):
            SpacingPolicy(band_c=0.5, trigger_margin_c=0.6)

    def test_ladder_steps_down(self):
        profile = drpm_profile(24000, levels=4, step_rpm=3000)
        policy = LadderPolicy(profile, envelope_c=45.0, band_c=1.0)
        assert policy.decide(43.0, 0.0).rpm == 24000
        mid = policy.decide(44.4, 0.0).rpm
        hot = policy.decide(44.9, 0.0).rpm
        assert mid < 24000
        assert hot <= mid
        emergency = policy.decide(45.2, 0.0)
        assert not emergency.admit and emergency.rpm == profile.bottom_rpm

    def test_ladder_requires_serving_profile(self):
        from repro.dtm import two_level_profile

        with pytest.raises(DTMError):
            LadderPolicy(two_level_profile(24000, 12000))

    def test_control_action_defaults(self):
        action = ControlAction()
        assert action.admit and action.issue_gap_ms == 0.0 and action.rpm is None


class TestPolicyManagedSystem:
    def run_policy(self, policy, rpm=24500.0, requests=500):
        spec = workload("search_engine")
        system = spec.build_system(rpm=rpm)
        thermal = DriveThermalModel(platter_diameter_in=2.6, rpm=rpm, vcm_active=False)
        thermal.settle()
        thermal.set_operating_state(vcm_active=True)
        managed = PolicyManagedSystem(system, thermal, policy, check_interval_ms=20.0)
        trace = spec.generate(num_requests=requests, seed=6)
        return managed.run_trace(trace), managed

    def test_reactive_policy_completes(self):
        report, _ = self.run_policy(ReactiveGatePolicy())
        assert report.stats.count == 500

    def test_spacing_policy_completes(self):
        report, _ = self.run_policy(SpacingPolicy())
        assert report.stats.count == 500

    def test_ladder_policy_changes_rpm_under_pressure(self):
        profile = drpm_profile(24500, levels=3, step_rpm=4000)
        # An artificially tight envelope forces ladder activity.
        policy = LadderPolicy(profile, envelope_c=44.0, band_c=0.6)
        report, managed = self.run_policy(policy)
        assert report.stats.count == 500
        assert managed.rpm_changes >= 1

    def test_rejects_non_policy(self):
        spec = workload("search_engine")
        system = spec.build_system(rpm=20000)
        thermal = DriveThermalModel(platter_diameter_in=2.6, rpm=20000)
        with pytest.raises(DTMError):
            PolicyManagedSystem(system, thermal, policy="gate")


class TestPowerReport:
    def test_components_accrue(self, small_disk, events):
        for lba in (0, 60_000, 120_000):
            small_disk.submit(Request(arrival_ms=0.0, lba=lba, sectors=8))
        events.run()
        report = power_report(small_disk, events.now_ms, diameter_in=2.6)
        assert report.spindle_j > 0
        assert report.windage_j > 0
        assert report.vcm_j > 0
        assert 0 < report.seek_duty <= 1
        assert report.total_j == pytest.approx(
            report.spindle_j + report.windage_j + report.vcm_j
        )
        assert report.average_w > 0

    def test_energy_per_request(self, small_disk, events):
        small_disk.submit(Request(arrival_ms=0.0, lba=0, sectors=8))
        events.run()
        report = power_report(small_disk, events.now_ms, diameter_in=2.6)
        assert energy_per_request_j(report, 1) == pytest.approx(report.total_j)
        with pytest.raises(Exception):
            energy_per_request_j(report, 0)

    def test_higher_rpm_costs_more_windage(self, events):
        def run(rpm):
            disk = standard_disk(
                name=f"p{rpm}", events=events, diameter_in=2.6, platters=1,
                kbpi=300, ktpi=10, rpm=rpm, zone_count=10,
            )
            disk.submit(Request(arrival_ms=events.now_ms, lba=0, sectors=8))
            events.run()
            return power_report(disk, 1000.0, diameter_in=2.6)

        slow = run(10000)
        fast = run(20000)
        assert fast.windage_j > 2 * slow.windage_j

    def test_rejects_bad_interval(self, small_disk):
        with pytest.raises(Exception):
            power_report(small_disk, 0.0, diameter_in=2.6)


class TestClosedLoop:
    def make_system(self, rpm=10000):
        return workload("oltp").build_system(rpm=rpm)

    def test_all_requests_complete(self):
        shape = WorkloadShape(name="cl", mean_interarrival_ms=1.0, size_mix=((8, 1.0),))
        result = run_closed_loop(
            self.make_system(), shape, clients=4, think_time_ms=5.0,
            requests_per_client=25, seed=1,
        )
        assert result.completed == 100
        assert result.throughput_per_s > 0
        assert result.mean_response_ms > 0

    def test_more_clients_more_throughput_at_light_load(self):
        shape = WorkloadShape(name="cl", mean_interarrival_ms=1.0, size_mix=((8, 1.0),))
        small = run_closed_loop(
            self.make_system(), shape, clients=2, think_time_ms=20.0,
            requests_per_client=40, seed=2,
        )
        large = run_closed_loop(
            self.make_system(), shape, clients=8, think_time_ms=20.0,
            requests_per_client=40, seed=2,
        )
        assert large.throughput_per_s > small.throughput_per_s

    def test_faster_disks_raise_throughput(self):
        shape = WorkloadShape(name="cl", mean_interarrival_ms=1.0, size_mix=((8, 1.0),))
        slow = run_closed_loop(
            self.make_system(10000), shape, clients=6, think_time_ms=2.0,
            requests_per_client=40, seed=3,
        )
        fast = run_closed_loop(
            self.make_system(20000), shape, clients=6, think_time_ms=2.0,
            requests_per_client=40, seed=3,
        )
        assert fast.mean_response_ms < slow.mean_response_ms

    def test_parameter_validation(self):
        shape = WorkloadShape(name="cl", mean_interarrival_ms=1.0)
        with pytest.raises(TraceError):
            run_closed_loop(self.make_system(), shape, clients=0)
        with pytest.raises(TraceError):
            run_closed_loop(self.make_system(), shape, think_time_ms=0)


class TestSensitivity:
    @pytest.fixture(scope="class")
    def points(self):
        return calibration_sensitivity(scales=(0.8, 1.0, 1.2))

    def test_covers_all_parameters(self, points):
        assert {p.parameter for p in points} == {
            "airflow_quality",
            "stack_convection_scale",
            "internal_wall_scale",
            "vcm_pivot_g_w_per_k",
            "spindle_bearing_g_w_per_k",
        }

    def test_headline_robust(self, points):
        # Re-fit to the anchor, the roadmap still falls off the 40% curve
        # under every +-20% perturbation.
        assert headline_robust(points)

    def test_anchor_refit_keeps_spm_physical(self, points):
        for p in points:
            assert 3.0 < p.fitted_spm_w < 25.0

    def test_extrapolated_envelope_rpm_stays_in_band(self, points):
        rpms = [p.envelope_rpm_16 for p in points]
        assert max(rpms) / min(rpms) < 1.5

    def test_shortfall_year_stable(self, points):
        years = [p.shortfall_year for p in points]
        assert max(years) - min(years) <= 3

    def test_fixed_loss_margin_is_tight(self):
        from repro.thermal import fixed_loss_margin_w

        margin = fixed_loss_margin_w()
        assert 0.0 < margin < 3.0  # about a watt of headroom

    def test_exponent_sensitivity_anchor_invariance(self):
        results = exponent_sensitivity(
            rpm_exponents=(2.8,), diameter_exponents=(4.6, 4.8)
        )
        # At the 2.6" anchor diameter the diameter exponent is irrelevant:
        # the envelope RPM barely moves.
        rpms = [r["envelope_rpm_26"] for r in results]
        assert abs(rpms[0] - rpms[1]) / rpms[0] < 0.02

    def test_exponent_sensitivity_rpm_exponent(self):
        results = exponent_sensitivity(
            rpm_exponents=(2.6, 3.0), diameter_exponents=(4.8,)
        )
        by_exp = {r["rpm_exponent"]: r["envelope_rpm_26"] for r in results}
        # The envelope limit (~15.0K) sits just below the 15,098 RPM anchor
        # that pins the windage curve, so the exponent barely moves it: a
        # steeper curve even dissipates slightly *less* below the anchor.
        assert abs(by_exp[2.6] - by_exp[3.0]) / by_exp[2.6] < 0.005
        assert by_exp[3.0] >= by_exp[2.6]
