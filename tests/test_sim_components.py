"""Simulator component tests: cache, schedulers, disk, statistics."""

import pytest

from repro.errors import SimulationError
from repro.simulation.cache import DiskCache
from repro.simulation.disk import CACHE_HIT_MS
from repro.simulation.request import Request
from repro.simulation.scheduler import (
    FCFSScheduler,
    LookScheduler,
    SSTFScheduler,
    make_scheduler,
)
from repro.simulation.statistics import ResponseTimeStats
from repro.simulation.disk import drive_geometry
from repro.workloads import workload


class TestDiskCache:
    @pytest.fixture
    def cache(self):
        return DiskCache(size_bytes=64 * 1024, segments=4, read_ahead_sectors=16)

    def test_miss_then_hit(self, cache):
        assert not cache.lookup_read(100, 8)
        cache.fill_after_read(100, 8, disk_sectors=10_000)
        assert cache.lookup_read(100, 8)

    def test_read_ahead_serves_sequential(self, cache):
        cache.fill_after_read(100, 8, disk_sectors=10_000)
        assert cache.lookup_read(108, 8)  # inside the read-ahead tail

    def test_partial_overlap_is_miss(self, cache):
        cache.fill_after_read(100, 8, disk_sectors=10_000)
        assert not cache.lookup_read(120, 16)

    def test_lru_eviction(self, cache):
        for i in range(5):
            cache.fill_after_read(i * 1000, 8, disk_sectors=100_000)
        assert len(cache) == 4
        assert not cache.lookup_read(0, 8)  # oldest evicted
        assert cache.lookup_read(4000, 8)

    def test_hit_refreshes_lru(self, cache):
        for i in range(4):
            cache.fill_after_read(i * 1000, 8, disk_sectors=100_000)
        cache.lookup_read(0, 8)  # touch the oldest
        cache.fill_after_read(9000, 8, disk_sectors=100_000)
        assert cache.contains(0, 8)  # survived because it was touched
        assert not cache.contains(1000, 8)

    def test_interior_write_keeps_segment(self, cache):
        cache.fill_after_read(100, 16, disk_sectors=10_000)
        cache.note_write(104, 4)
        assert cache.contains(100, 16)

    def test_straddling_write_invalidates(self, cache):
        cache.fill_after_read(100, 16, disk_sectors=10_000)
        cache.note_write(90, 20)  # overlaps the front edge
        assert not cache.contains(100, 8)

    def test_read_ahead_clipped_at_disk_end(self, cache):
        start, length = cache.fill_after_read(95, 4, disk_sectors=100)
        assert start + length <= 100

    def test_stats(self, cache):
        cache.lookup_read(0, 4)
        cache.fill_after_read(0, 4, disk_sectors=1000)
        cache.lookup_read(0, 4)
        cache.note_write(500, 4)
        assert cache.stats.read_misses == 1
        assert cache.stats.read_hits == 1
        assert cache.stats.writes == 1
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_clear(self, cache):
        cache.fill_after_read(0, 4, disk_sectors=1000)
        cache.clear()
        assert len(cache) == 0

    def test_rejects_bad_config(self):
        with pytest.raises(SimulationError):
            DiskCache(size_bytes=0)
        with pytest.raises(SimulationError):
            DiskCache(segments=0)
        with pytest.raises(SimulationError):
            DiskCache(read_ahead_sectors=-1)


def _request(lba, arrival=0.0):
    return Request(arrival_ms=arrival, lba=lba, sectors=4)


class TestSchedulers:
    def test_fcfs_order(self):
        scheduler = FCFSScheduler()
        for lba in (500, 100, 900):
            scheduler.add(_request(lba))
        assert [scheduler.next(0).lba for _ in range(3)] == [500, 100, 900]

    def test_sstf_picks_nearest(self):
        scheduler = SSTFScheduler(cylinder_of=lambda lba: lba // 100)
        for lba in (10_000, 500, 5_000):
            scheduler.add(_request(lba))
        assert scheduler.next(4).lba == 500
        assert scheduler.next(5).lba == 5_000

    def test_sstf_ties_break_by_arrival(self):
        scheduler = SSTFScheduler(cylinder_of=lambda lba: 7)
        scheduler.add(_request(1, arrival=1.0))
        scheduler.add(_request(2, arrival=0.5))
        assert scheduler.next(7).lba == 2

    def test_look_sweeps_then_reverses(self):
        scheduler = LookScheduler(cylinder_of=lambda lba: lba)
        for lba in (10, 30, 5):
            scheduler.add(_request(lba))
        # Head at 20 moving up: 30, then reverse: 10, 5.
        assert scheduler.next(20).lba == 30
        assert scheduler.next(30).lba == 10
        assert scheduler.next(10).lba == 5

    def test_empty_returns_none(self):
        for scheduler in (
            FCFSScheduler(),
            SSTFScheduler(lambda lba: 0),
            LookScheduler(lambda lba: 0),
        ):
            assert scheduler.next(0) is None
            assert len(scheduler) == 0

    def test_factory(self):
        assert isinstance(make_scheduler("fcfs", lambda l: 0), FCFSScheduler)
        assert isinstance(make_scheduler("SSTF", lambda l: 0), SSTFScheduler)
        assert isinstance(make_scheduler("look", lambda l: 0), LookScheduler)

    def test_factory_unknown(self):
        with pytest.raises(SimulationError):
            make_scheduler("cfq", lambda l: 0)


class TestSimulatedDisk:
    def test_single_request_completes(self, small_disk, events):
        done = []
        small_disk.on_complete = lambda r, t: done.append((r, t))
        small_disk.submit(Request(arrival_ms=0.0, lba=0, sectors=8))
        events.run()
        assert len(done) == 1
        request, t = done[0]
        assert request.completion_ms == t
        assert t > 0

    def test_requests_queue_while_busy(self, small_disk, events):
        done = []
        small_disk.on_complete = lambda r, t: done.append(r.lba)
        for lba in (0, 50_000, 100_000):
            small_disk.submit(Request(arrival_ms=0.0, lba=lba, sectors=8))
        assert small_disk.queue_depth() == 2
        events.run()
        assert done == [0, 50_000, 100_000]
        assert small_disk.queue_depth() == 0
        assert not small_disk.busy

    def test_cache_hit_is_fast(self, small_disk, events):
        times = []
        small_disk.on_complete = lambda r, t: times.append(r.response_time_ms)
        small_disk.submit(Request(arrival_ms=0.0, lba=0, sectors=8))
        events.run()
        small_disk.submit(Request(arrival_ms=events.now_ms, lba=0, sectors=8))
        events.run()
        assert times[1] < times[0]
        assert times[1] == pytest.approx(CACHE_HIT_MS + times[1] - CACHE_HIT_MS)
        assert times[1] < 0.5

    def test_writes_always_hit_media(self, small_disk, events):
        times = []
        small_disk.on_complete = lambda r, t: times.append(r.response_time_ms)
        write = Request(arrival_ms=0.0, lba=0, sectors=8, is_write=True)
        small_disk.submit(write)
        events.run()
        small_disk.submit(Request(arrival_ms=events.now_ms, lba=0, sectors=8, is_write=True))
        events.run()
        assert min(times) > CACHE_HIT_MS * 2

    def test_rejects_out_of_range(self, small_disk):
        with pytest.raises(SimulationError):
            small_disk.submit(
                Request(arrival_ms=0.0, lba=small_disk.total_sectors, sectors=1)
            )

    def test_set_rpm_changes_mechanics(self, small_disk):
        old_period = small_disk.mechanics.period_ms
        small_disk.set_rpm(20000)
        assert small_disk.rpm == 20000
        assert small_disk.mechanics.period_ms < old_period

    def test_stats_accumulate(self, small_disk, events):
        for lba in (0, 90_000):
            small_disk.submit(Request(arrival_ms=0.0, lba=lba, sectors=8))
        events.run()
        stats = small_disk.stats
        assert stats.requests_completed == 2
        assert stats.reads == 2
        assert stats.busy_ms > 0
        assert stats.seeks_with_movement >= 1
        assert stats.mean_seek_distance() > 0

    def test_utilization_bounded(self, small_disk, events):
        small_disk.submit(Request(arrival_ms=0.0, lba=0, sectors=8))
        events.run()
        assert 0.0 < small_disk.stats.utilization(events.now_ms) <= 1.0


class TestSharedDriveGeometry:
    """Disks of one design share read-only geometry and nothing else."""

    def test_systems_from_one_spec_share_geometry_not_state(self):
        spec = workload("tpcc")
        first = spec.build_system()
        second = spec.build_system(rpm=spec.base_rpm + 5000.0)
        disks = first.disks + second.disks
        assert len({id(d.layout) for d in disks}) == 1
        assert len({id(d.seek_model) for d in disks}) == 1
        for attr in ("cache", "stats", "mechanics", "scheduler"):
            assert len({id(getattr(d, attr)) for d in disks}) == len(disks), attr
        assert first.events is not second.events

        first.run_trace(spec.generate(num_requests=200, seed=3))
        assert any(d.head_cylinder != 0 for d in first.disks)
        assert all(d.head_cylinder == 0 for d in second.disks)
        assert all(d.stats.requests_completed == 0 for d in second.disks)
        assert all(len(d.cache) == 0 for d in second.disks)

        first.disks[0].set_rpm(spec.base_rpm + 10000.0)
        assert first.disks[1].rpm == spec.base_rpm
        assert all(d.rpm == spec.base_rpm + 5000.0 for d in second.disks)

    def test_drive_geometry_is_memoized_per_design(self):
        layout, seek = drive_geometry(2.6, 1, 300.0, 10.0, 10)
        assert drive_geometry(2.6, 1, 300.0, 10.0, 10) == (layout, seek)
        other, _ = drive_geometry(2.6, 2, 300.0, 10.0, 10)
        assert other is not layout
        assert other.surface is not layout.surface

    def test_capacity_needs_no_system(self, monkeypatch):
        spec = workload("openmail")
        expected = spec.build_system().array.logical_sectors
        assert spec.array_geometry().logical_sectors == expected

        def refuse(*args, **kwargs):
            raise AssertionError("trace generation built a storage system")

        monkeypatch.setattr(type(spec), "build_system", refuse)
        trace = spec.generate(num_requests=50, seed=1)
        assert trace.max_lba() <= expected


class TestResponseTimeStats:
    def test_mean(self):
        stats = ResponseTimeStats()
        for v in (1.0, 2.0, 3.0):
            stats.add(v)
        assert stats.mean_ms() == pytest.approx(2.0)

    def test_percentiles(self):
        stats = ResponseTimeStats()
        for v in range(1, 101):
            stats.add(float(v))
        assert stats.median_ms() == pytest.approx(50.5)
        assert stats.percentile_ms(0) == 1.0
        assert stats.percentile_ms(100) == 100.0
        assert stats.max_ms() == 100.0

    def test_cdf_fractions(self):
        stats = ResponseTimeStats()
        for v in (1.0, 6.0, 15.0, 250.0):
            stats.add(v)
        cdf = dict(stats.cdf(bins_ms=(5, 10, 20, 200)))
        assert cdf[5] == pytest.approx(0.25)
        assert cdf[10] == pytest.approx(0.5)
        assert cdf[20] == pytest.approx(0.75)
        assert cdf[200] == pytest.approx(0.75)

    def test_cdf_monotone(self):
        stats = ResponseTimeStats()
        import random

        rng = random.Random(5)
        for _ in range(500):
            stats.add(rng.uniform(0, 300))
        fractions = [f for _, f in stats.cdf()]
        assert fractions == sorted(fractions)

    def test_empty_raises(self):
        stats = ResponseTimeStats()
        with pytest.raises(SimulationError):
            stats.mean_ms()
        with pytest.raises(SimulationError):
            stats.cdf()

    def test_rejects_negative(self):
        stats = ResponseTimeStats()
        with pytest.raises(SimulationError):
            stats.add(-1.0)

    def test_merge(self):
        a = ResponseTimeStats(samples_ms=[1.0])
        b = ResponseTimeStats(samples_ms=[3.0])
        assert a.merged_with(b).mean_ms() == pytest.approx(2.0)
