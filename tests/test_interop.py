"""Interoperability tests: DiskSim trace format and the drive-spec bridge."""

import pytest

from repro.drives import drive_by_model
from repro.errors import TraceError
from repro.simulation.events import EventQueue
from repro.simulation.request import Request
from repro.workloads import (
    Trace,
    TraceRecord,
    read_disksim,
    write_disksim,
)


class TestDiskSimFormat:
    def make_trace(self):
        return Trace(
            name="t",
            records=[
                TraceRecord(0.0, 0, 8, False),
                TraceRecord(1500.0, 4096, 16, True),
                TraceRecord(2000.0, 128, 4, False),
            ],
        )

    def test_roundtrip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "t.dsim"
        write_disksim(trace, path)
        loaded = read_disksim(path)
        assert len(loaded) == 3
        for a, b in zip(trace, loaded):
            assert a.lba == b.lba
            assert a.sectors == b.sectors
            assert a.is_write == b.is_write
            assert a.time_ms == pytest.approx(b.time_ms, abs=1e-3)

    def test_format_fields(self, tmp_path):
        path = tmp_path / "t.dsim"
        write_disksim(self.make_trace(), path, device=3)
        line = path.read_text().splitlines()[0].split()
        assert len(line) == 5
        assert line[1] == "3"
        assert line[4] == "1"  # read flag

    def test_read_flag_semantics(self, tmp_path):
        path = tmp_path / "t.dsim"
        path.write_text("0.0 0 100 8 1\n0.5 0 200 8 0\n")
        loaded = read_disksim(path)
        assert not loaded.records[0].is_write  # flag 1 = read
        assert loaded.records[1].is_write

    def test_device_filter(self, tmp_path):
        path = tmp_path / "multi.dsim"
        path.write_text("0.0 0 100 8 1\n0.5 1 200 8 1\n1.0 0 300 8 1\n")
        only0 = read_disksim(path, device=0)
        assert len(only0) == 2
        assert {r.lba for r in only0} == {100, 300}

    def test_multi_device_flattening(self, tmp_path):
        path = tmp_path / "multi.dsim"
        path.write_text("0.0 0 100 8 1\n0.5 1 200 8 1\n")
        flat = read_disksim(path, sectors_per_device=10_000)
        assert {r.lba for r in flat} == {100, 10_200}

    def test_multi_device_without_stride_rejected(self, tmp_path):
        path = tmp_path / "multi.dsim"
        path.write_text("0.0 0 100 8 1\n0.5 1 200 8 1\n")
        with pytest.raises(TraceError):
            read_disksim(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.dsim"
        path.write_text("0.0 0 100\n")
        with pytest.raises(TraceError):
            read_disksim(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.dsim"
        path.write_text("# only comments\n")
        with pytest.raises(TraceError):
            read_disksim(path)

    def test_out_of_order_times_sorted(self, tmp_path):
        path = tmp_path / "unordered.dsim"
        path.write_text("1.0 0 100 8 1\n0.5 0 200 8 1\n")
        loaded = read_disksim(path)
        times = [r.time_ms for r in loaded]
        assert times == sorted(times)

    def test_loaded_trace_replays(self, tmp_path):
        from repro.simulation.system import build_system

        path = tmp_path / "replay.dsim"
        write_disksim(self.make_trace(), path)
        trace = read_disksim(path)
        system = build_system(disk_count=1, rpm=10000, disk_capacity_gb=1.0)
        report = system.run_trace(trace)
        assert report.requests == 3


class TestDriveSpecBridge:
    def test_simulated_disk_matches_spec(self):
        spec = drive_by_model("Seagate Cheetah 15K.3")
        events = EventQueue()
        disk = spec.simulated_disk(events)
        assert disk.rpm == spec.rpm
        assert disk.name == spec.model
        # The simulator sees the same capacity as the capacity model.
        assert disk.total_sectors * 512 == pytest.approx(
            spec.modeled_capacity_gb() * 1e9, rel=0.01
        )

    def test_simulated_disk_serves_requests(self):
        spec = drive_by_model("Quantum Atlas 10K")
        events = EventQueue()
        disk = spec.simulated_disk(events, name="atlas")
        done = []
        disk.on_complete = lambda r, t: done.append(r)
        disk.submit(Request(arrival_ms=0.0, lba=0, sectors=8))
        disk.submit(Request(arrival_ms=0.0, lba=disk.total_sectors // 2, sectors=8))
        events.run()
        assert len(done) == 2

    def test_faster_spec_faster_service(self):
        slow_spec = drive_by_model("Seagate Barracuda 180")  # 7200 RPM
        fast_spec = drive_by_model("Seagate Cheetah X15")  # 15000 RPM

        def mean_random_ms(spec, n=60):
            import random

            events = EventQueue()
            disk = spec.simulated_disk(events)
            times = []
            disk.on_complete = lambda r, t: times.append(r.response_time_ms)
            rng = random.Random(9)
            for i in range(n):
                disk.submit(
                    Request(
                        arrival_ms=0.0,
                        lba=rng.randrange(disk.total_sectors - 8),
                        sectors=8,
                    )
                )
            events.run()
            return sum(times) / len(times)

        # Queueing dominates (all arrive at 0), but per-request service of
        # the 15K 2.6" drive is far below the 7.2K 3.7" drive's.
        assert mean_random_ms(fast_spec) < mean_random_ms(slow_spec)
