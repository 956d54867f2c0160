"""End-to-end storage-system tests (small versions of the Figure 4 runs)."""

import pytest

from repro.errors import SimulationError
from repro.simulation.system import build_system
from repro.workloads import Trace, TraceRecord, workload


class TestBuildSystem:
    def test_disk_count_and_rpm(self):
        system = build_system(disk_count=3, rpm=12000, disk_capacity_gb=5.0, raid5=True)
        assert len(system.disks) == 3
        assert all(d.rpm == 12000 for d in system.disks)

    def test_capacity_clipping(self):
        system = build_system(disk_count=2, rpm=10000, disk_capacity_gb=1.0)
        assert system.array.geometry.disk_sectors <= int(1.0e9) // 512

    def test_rejects_bad_parameters(self):
        with pytest.raises(SimulationError):
            build_system(disk_count=0, rpm=10000, disk_capacity_gb=1.0)
        with pytest.raises(SimulationError):
            build_system(disk_count=1, rpm=10000, disk_capacity_gb=0.0)

    def test_scheduler_selection(self):
        from repro.simulation.scheduler import SSTFScheduler

        system = build_system(
            disk_count=1, rpm=10000, disk_capacity_gb=1.0, scheduler_name="sstf"
        )
        assert isinstance(system.disks[0].scheduler, SSTFScheduler)


class TestRunTrace:
    def make_trace(self, n, capacity, seed=0, write_every=4):
        import random

        rng = random.Random(seed)
        records = []
        t = 0.0
        for i in range(n):
            t += rng.expovariate(1 / 2.0)
            records.append(
                TraceRecord(
                    time_ms=t,
                    lba=rng.randrange(capacity - 64),
                    sectors=8,
                    is_write=(i % write_every == 0),
                )
            )
        return Trace(name="synthetic", records=records)

    def test_all_requests_complete(self):
        system = build_system(disk_count=2, rpm=10000, disk_capacity_gb=2.0)
        trace = self.make_trace(300, system.array.logical_sectors)
        report = system.run_trace(trace)
        assert report.requests == 300
        assert report.stats.count == 300
        assert report.simulated_ms >= trace.duration_ms

    def test_report_fields(self):
        system = build_system(disk_count=2, rpm=10000, disk_capacity_gb=2.0)
        trace = self.make_trace(200, system.array.logical_sectors)
        report = system.run_trace(trace)
        assert report.rpm == 10000
        assert len(report.disk_utilizations) == 2
        assert all(0 <= u <= 1 for u in report.disk_utilizations)
        assert 0 <= report.cache_hit_ratio <= 1

    def test_empty_trace_rejected(self):
        system = build_system(disk_count=1, rpm=10000, disk_capacity_gb=1.0)
        with pytest.raises(SimulationError):
            system.run_trace(Trace(name="empty"))

    def test_oversized_trace_rejected(self):
        system = build_system(disk_count=1, rpm=10000, disk_capacity_gb=1.0)
        big = Trace(
            name="big",
            records=[TraceRecord(0.0, system.array.logical_sectors, 8, False)],
        )
        with pytest.raises(SimulationError):
            system.run_trace(big)

    def test_higher_rpm_improves_response(self):
        trace = None
        means = []
        for rpm in (10000, 20000):
            system = build_system(disk_count=2, rpm=rpm, disk_capacity_gb=2.0)
            if trace is None:
                trace = self.make_trace(400, system.array.logical_sectors, seed=3)
            report = system.run_trace(trace)
            means.append(report.mean_response_ms())
        assert means[1] < means[0]

    def test_raid5_writes_slower_than_raid0(self):
        means = []
        for raid5 in (False, True):
            system = build_system(
                disk_count=4, rpm=10000, disk_capacity_gb=2.0, raid5=raid5,
                stripe_unit_sectors=16,
            )
            trace = self.make_trace(
                200, system.array.logical_sectors, seed=4, write_every=2
            )
            means.append(system.run_trace(trace).mean_response_ms())
        assert means[1] > means[0]


class TestPaperWorkloadsSmall:
    """Scaled-down versions of the Figure 4 experiment: every workload must
    improve monotonically with RPM."""

    @pytest.mark.parametrize("name", ["oltp", "tpcc", "search_engine"])
    def test_rpm_monotonicity(self, name):
        spec = workload(name)
        trace = spec.generate(num_requests=1200, seed=42)
        means = []
        for rpm in spec.rpm_sweep(3):
            report = spec.build_system(rpm).run_trace(trace)
            means.append(report.mean_response_ms())
        assert means[0] > means[1] > means[2]

    def test_plus_5k_gain_in_paper_band(self):
        # The paper's +5K RPM gains range ~20-55%; check a fast workload
        # lands in a generous version of that band.
        spec = workload("oltp")
        trace = spec.generate(num_requests=2000, seed=7)
        base = spec.build_system(10000).run_trace(trace).mean_response_ms()
        plus5 = spec.build_system(15000).run_trace(trace).mean_response_ms()
        gain = (base - plus5) / base
        assert 0.10 <= gain <= 0.60

    def test_cdf_shifts_left_with_rpm(self):
        spec = workload("search_engine")
        trace = spec.generate(num_requests=1500, seed=9)
        slow = spec.build_system(10000).run_trace(trace).stats.cdf()
        fast = spec.build_system(20000).run_trace(trace).stats.cdf()
        # At every bin edge, the faster system has completed at least as
        # large a fraction of requests.
        for (edge_s, frac_s), (edge_f, frac_f) in zip(slow, fast):
            assert edge_s == edge_f
            assert frac_f >= frac_s - 0.02
