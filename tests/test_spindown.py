"""Spin-down power-management tests (the §2 related-work machinery)."""

import pytest

from repro.dtm.spindown import PowerState, SpinManagedDisk, SpinPolicy
from repro.errors import DTMError
from repro.simulation.disk import standard_disk
from repro.simulation.events import EventQueue
from repro.workloads import Trace, TraceRecord


def make_managed(idle_timeout_ms=500.0, spin_up_ms=2000.0):
    events = EventQueue()
    disk = standard_disk(
        name="pm",
        events=events,
        diameter_in=2.6,
        platters=1,
        kbpi=300,
        ktpi=10,
        rpm=10000,
        zone_count=10,
    )
    policy = SpinPolicy(idle_timeout_ms=idle_timeout_ms, spin_up_ms=spin_up_ms)
    return SpinManagedDisk(disk, policy)


def bursty_trace(bursts=3, per_burst=5, gap_ms=3000.0):
    records = []
    t = 0.0
    lba = 0
    for _ in range(bursts):
        for _ in range(per_burst):
            records.append(TraceRecord(t, lba, 8, False))
            t += 5.0
            lba += 512
        t += gap_ms
    return Trace(name="bursty", records=records)


class TestSpinPolicy:
    def test_validation(self):
        with pytest.raises(DTMError):
            SpinPolicy(idle_timeout_ms=-1)
        with pytest.raises(DTMError):
            SpinPolicy(spin_up_ms=-1)

    def test_none_timeout_allowed(self):
        assert SpinPolicy(idle_timeout_ms=None).idle_timeout_ms is None


class TestSpinManagedDisk:
    def test_all_requests_complete(self):
        managed = make_managed()
        report = managed.run_trace(bursty_trace())
        assert report.stats.count == 15

    def test_spin_down_happens_in_gaps(self):
        managed = make_managed(idle_timeout_ms=500.0)
        report = managed.run_trace(bursty_trace(gap_ms=3000.0))
        # Gaps of 3 s with a 0.5 s timeout: the disk spins down between
        # bursts and spins back up for the next one.
        assert report.spin_ups >= 2
        assert report.standby_ms > 0

    def test_no_spin_down_without_timeout(self):
        managed = make_managed(idle_timeout_ms=None)
        report = managed.run_trace(bursty_trace())
        assert report.spin_ups == 0
        assert report.standby_ms == 0.0
        assert managed.state in (PowerState.ACTIVE, PowerState.IDLE)

    def test_spin_up_penalty_visible_in_latency(self):
        always_on = make_managed(idle_timeout_ms=None)
        report_on = always_on.run_trace(bursty_trace())
        eager = make_managed(idle_timeout_ms=200.0, spin_up_ms=2000.0)
        report_eager = eager.run_trace(bursty_trace())
        # Burst leaders pay the 2 s spin-up.
        assert report_eager.stats.max_ms() > 1500.0
        assert report_on.stats.max_ms() < 500.0

    def test_energy_saved_by_spin_down(self):
        always_on = make_managed(idle_timeout_ms=None)
        energy_on = always_on.run_trace(bursty_trace(gap_ms=20_000.0)).energy_j
        eager = make_managed(idle_timeout_ms=200.0)
        energy_eager = eager.run_trace(bursty_trace(gap_ms=20_000.0)).energy_j
        # With 20 s gaps and a 0.2 s timeout, most wall time is standby.
        assert energy_eager < 0.6 * energy_on

    def test_energy_conservation_components(self):
        managed = make_managed(idle_timeout_ms=None)
        report = managed.run_trace(bursty_trace())
        # Always-on: energy ~ spinning power x wall time (+ VCM).
        spinning_w = managed._spinning_power_w()
        floor = spinning_w * report.simulated_ms / 1000.0
        assert report.energy_j == pytest.approx(floor, rel=0.1)

    def test_timeout_shorter_than_gap_is_required(self):
        lazy = make_managed(idle_timeout_ms=10_000.0)
        report = lazy.run_trace(bursty_trace(gap_ms=3000.0))
        assert report.spin_ups == 0  # the timer never fires before work

    def test_standby_fraction_bounded(self):
        managed = make_managed(idle_timeout_ms=200.0)
        report = managed.run_trace(bursty_trace(gap_ms=10_000.0))
        assert 0.0 < report.standby_fraction < 1.0

    def test_stale_idle_timer_is_noop(self):
        # A burst arriving before the timer fires must cancel it: the
        # disk never enters standby and pays no spin-up.
        managed = make_managed(idle_timeout_ms=2500.0, spin_up_ms=2000.0)
        report = managed.run_trace(bursty_trace(gap_ms=2000.0))
        assert report.spin_ups == 0
        assert report.stats.max_ms() < 1000.0
