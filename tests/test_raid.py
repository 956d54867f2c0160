"""RAID geometry and storage-array tests."""

import pytest

from repro.errors import SimulationError
from repro.simulation.array import StorageArray
from repro.simulation.disk import standard_disk
from repro.simulation.events import EventQueue
from repro.simulation.raid import Raid0Geometry, Raid5Geometry
from repro.simulation.request import Request


def read(lba, sectors, arrival=0.0):
    return Request(arrival_ms=arrival, lba=lba, sectors=sectors)


def write(lba, sectors, arrival=0.0):
    return Request(arrival_ms=arrival, lba=lba, sectors=sectors, is_write=True)


class TestRaid0Geometry:
    @pytest.fixture
    def geometry(self):
        return Raid0Geometry(disk_count=4, stripe_unit_sectors=16, disk_sectors=1600)

    def test_logical_capacity(self, geometry):
        assert geometry.logical_sectors == 4 * 1600

    def test_small_request_single_disk(self, geometry):
        plan = geometry.plan(read(0, 8))
        assert len(plan.phases) == 1
        assert len(plan.phases[0]) == 1
        child = plan.phases[0][0]
        assert child.disk == 0 and child.lba == 0 and child.sectors == 8

    def test_units_rotate_over_disks(self, geometry):
        disks = [geometry.plan(read(unit * 16, 1)).phases[0][0].disk for unit in range(8)]
        assert disks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_large_request_spans_disks(self, geometry):
        plan = geometry.plan(read(0, 64))
        children = plan.phases[0]
        assert {c.disk for c in children} == {0, 1, 2, 3}
        assert sum(c.sectors for c in children) == 64

    def test_total_child_sectors_preserved(self, geometry):
        for lba, sectors in ((5, 3), (10, 40), (100, 77)):
            plan = geometry.plan(read(lba, sectors))
            assert sum(c.sectors for c in plan.all_children()) == sectors

    def test_write_children_are_writes(self, geometry):
        plan = geometry.plan(write(0, 32))
        assert all(c.is_write for c in plan.all_children())

    def test_rejects_overflow(self, geometry):
        with pytest.raises(SimulationError):
            geometry.plan(read(geometry.logical_sectors - 4, 8))

    def test_coalesces_contiguous_same_disk_runs(self):
        # With 1 disk every unit is contiguous on that disk.
        geometry = Raid0Geometry(disk_count=1, stripe_unit_sectors=16, disk_sectors=1600)
        plan = geometry.plan(read(0, 64))
        assert len(plan.phases[0]) == 1
        assert plan.phases[0][0].sectors == 64


class TestRaid5Geometry:
    @pytest.fixture
    def geometry(self):
        return Raid5Geometry(disk_count=4, stripe_unit_sectors=16, disk_sectors=1600)

    def test_capacity_excludes_parity(self, geometry):
        raid0 = Raid0Geometry(disk_count=4, stripe_unit_sectors=16, disk_sectors=1600)
        assert geometry.logical_sectors == raid0.logical_sectors * 3 // 4

    def test_needs_three_disks(self):
        with pytest.raises(SimulationError):
            Raid5Geometry(disk_count=2, stripe_unit_sectors=16, disk_sectors=1600)

    def test_parity_rotates(self, geometry):
        paritys = [geometry.parity_disk(row) for row in range(4)]
        assert sorted(paritys) == [0, 1, 2, 3]

    def test_data_never_on_parity_disk(self, geometry):
        for unit in range(32):
            row = unit // geometry.data_disks
            disk, _ = geometry.locate_unit(unit)
            assert disk != geometry.parity_disk(row)

    def test_read_has_single_phase_no_parity(self, geometry):
        plan = geometry.plan(read(0, 32))
        assert len(plan.phases) == 1
        assert all(not c.is_write for c in plan.phases[0])
        assert sum(c.sectors for c in plan.phases[0]) == 32

    def test_small_write_is_read_modify_write(self, geometry):
        plan = geometry.plan(write(0, 8))
        assert len(plan.phases) == 2
        reads, writes = plan.phases
        assert all(not c.is_write for c in reads)
        assert all(c.is_write for c in writes)
        # Old data + old parity read; new data + new parity written.
        assert len(reads) == 2
        assert len(writes) == 2

    def test_full_stripe_write_skips_preread(self, geometry):
        full_stripe_sectors = geometry.data_disks * geometry.stripe_unit
        plan = geometry.plan(write(0, full_stripe_sectors))
        assert len(plan.phases) == 1
        writes = plan.phases[0]
        assert all(c.is_write for c in writes)
        # Data on 3 disks plus parity on 1: all four spindles engaged.
        assert {c.disk for c in writes} == {0, 1, 2, 3}
        assert sum(c.sectors for c in writes) == full_stripe_sectors + geometry.stripe_unit

    def test_write_includes_parity_per_row(self, geometry):
        plan = geometry.plan(write(0, 8))
        writes = plan.phases[-1]
        parity_children = [
            c for c in writes if c.disk == geometry.parity_disk(0)
        ]
        assert parity_children and parity_children[0].sectors == 16


class TestStorageArray:
    def build(self, geometry_cls, disks=4):
        events = EventQueue()
        members = [
            standard_disk(
                name=f"d{i}",
                events=events,
                diameter_in=2.6,
                platters=1,
                kbpi=300,
                ktpi=10,
                rpm=10000,
                zone_count=10,
            )
            for i in range(disks)
        ]
        per_disk = min(d.total_sectors for d in members)
        geometry = geometry_cls(disks, 16, per_disk)
        done = []
        array = StorageArray(
            members, geometry, events, on_complete=lambda r, t: done.append(r)
        )
        return events, array, done

    def test_raid0_logical_completion(self):
        events, array, done = self.build(Raid0Geometry)
        array.submit(read(0, 64))
        events.run()
        assert len(done) == 1
        assert done[0].completion_ms is not None
        assert array.in_flight() == 0

    def test_raid5_write_two_phase_ordering(self):
        events, array, done = self.build(Raid5Geometry)
        array.submit(write(0, 8))
        events.run()
        assert len(done) == 1
        # RMW: response must cover two serial disk accesses.
        assert done[0].response_time_ms > 2.0

    def test_parallelism_speeds_up_wide_reads(self):
        events, array, done = self.build(Raid0Geometry)
        array.submit(read(0, 256))
        events.run()
        wide = done[0].response_time_ms
        # The same bytes on a single disk take longer.
        events2, array2, done2 = self.build(Raid0Geometry, disks=1)
        array2.submit(read(0, 256))
        events2.run()
        assert done2[0].response_time_ms > wide

    def test_many_requests_all_complete(self):
        events, array, done = self.build(Raid5Geometry)
        import random

        rng = random.Random(11)
        for i in range(200):
            lba = rng.randrange(array.logical_sectors - 64)
            if rng.random() < 0.3:
                array.submit(write(lba, 8, arrival=float(i)))
            else:
                array.submit(read(lba, 8, arrival=float(i)))
        events.run()
        assert len(done) == 200
        assert array.in_flight() == 0

    def test_geometry_disk_count_must_match(self):
        events = EventQueue()
        disks = [
            standard_disk(
                name="d0", events=events, diameter_in=2.6, platters=1,
                kbpi=300, ktpi=10, rpm=10000, zone_count=10,
            )
        ]
        geometry = Raid0Geometry(2, 16, 1000)
        with pytest.raises(SimulationError):
            StorageArray(disks, geometry, events)
