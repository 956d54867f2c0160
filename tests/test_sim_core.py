"""Simulator core tests: event queue, requests, layout, mechanics."""

import random

import pytest

from repro.errors import ReproError, SimulationError
from repro.performance.rotation import wait_for_angle_ms
from repro.simulation.request import Request
from repro.simulation.layout import DiskLayout
from repro.simulation.mechanics import DiskMechanics
from repro.performance.seek import SeekModel, SeekParameters


class TestEventQueue:
    def test_fires_in_time_order(self, events):
        fired = []
        events.schedule(5.0, lambda t: fired.append(("b", t)))
        events.schedule(1.0, lambda t: fired.append(("a", t)))
        events.schedule(9.0, lambda t: fired.append(("c", t)))
        events.run()
        assert [x[0] for x in fired] == ["a", "b", "c"]
        assert events.now_ms == 9.0

    def test_fifo_for_ties(self, events):
        fired = []
        for name in "abc":
            events.schedule(1.0, lambda t, n=name: fired.append(n))
        events.run()
        assert fired == ["a", "b", "c"]

    def test_callbacks_may_schedule(self, events):
        fired = []

        def first(t):
            fired.append(t)
            events.schedule_after(2.0, lambda t2: fired.append(t2))

        events.schedule(1.0, first)
        events.run()
        assert fired == [1.0, 3.0]

    def test_rejects_past_events(self, events):
        events.schedule(5.0, lambda t: None)
        events.run()
        with pytest.raises(SimulationError):
            events.schedule(1.0, lambda t: None)

    def test_rejects_negative_delay(self, events):
        with pytest.raises(SimulationError):
            events.schedule_after(-1.0, lambda t: None)

    def test_run_until_horizon(self, events):
        fired = []
        events.schedule(1.0, lambda t: fired.append(t))
        events.schedule(10.0, lambda t: fired.append(t))
        events.run(until_ms=5.0)
        assert fired == [1.0]
        assert events.now_ms == 5.0
        events.run()
        assert fired == [1.0, 10.0]

    def test_event_budget_enforced(self, events):
        def rearm(t):
            events.schedule_after(1.0, rearm)

        events.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            events.run(max_events=50)

    def test_step_returns_false_when_empty(self, events):
        assert events.step() is False

    def test_counts_fired(self, events):
        for i in range(5):
            events.schedule(float(i), lambda t: None)
        events.run()
        assert events.events_fired == 5

    def test_batch_scheduled_from_callback_fires(self, events):
        # The callback runs with the queue empty (it was the last event),
        # so the batch lands on an empty heap while run() is mid-loop.
        fired = []

        def spawn(t):
            fired.append(("spawn", t))
            events.schedule_batch(
                [(t + 2.0, lambda t2: fired.append(("b", t2))),
                 (t + 1.0, lambda t2: fired.append(("a", t2)))]
            )

        events.schedule(1.0, spawn)
        events.run()
        assert fired == [("spawn", 1.0), ("a", 2.0), ("b", 3.0)]
        assert len(events) == 0

    def test_horizon_checked_before_budget(self, events):
        fired = []
        for i in range(3):
            events.schedule(float(i), lambda t: fired.append(t))
        events.schedule(10.0, lambda t: fired.append(t))
        # Three events fit the budget; the fourth lies past the horizon,
        # which stops the run before the exhausted budget is noticed.
        events.run(until_ms=5.0, max_events=3)
        assert fired == [0.0, 1.0, 2.0]
        assert events.now_ms == 5.0
        with pytest.raises(SimulationError, match="budget of 0"):
            events.run(max_events=0)


class TestRequest:
    def test_response_time(self):
        request = Request(arrival_ms=10.0, lba=0, sectors=8)
        request.completion_ms = 25.5
        assert request.response_time_ms == pytest.approx(15.5)

    def test_response_time_requires_completion(self):
        request = Request(arrival_ms=10.0, lba=0, sectors=8)
        with pytest.raises(SimulationError):
            _ = request.response_time_ms

    def test_unique_ids(self):
        a = Request(arrival_ms=0, lba=0, sectors=1)
        b = Request(arrival_ms=0, lba=0, sectors=1)
        assert a.request_id != b.request_id

    def test_overlap(self):
        request = Request(arrival_ms=0, lba=100, sectors=10)
        assert request.overlaps(105, 1)
        assert request.overlaps(95, 6)
        assert not request.overlaps(110, 5)
        assert not request.overlaps(90, 10)

    def test_rejects_bad_fields(self):
        with pytest.raises(SimulationError):
            Request(arrival_ms=0, lba=0, sectors=0)
        with pytest.raises(SimulationError):
            Request(arrival_ms=0, lba=-1, sectors=1)
        with pytest.raises(SimulationError):
            Request(arrival_ms=-1, lba=0, sectors=1)


@pytest.fixture
def layout(surface_2002):
    return DiskLayout(surface_2002, surfaces=2)


class TestDiskLayout:
    def test_total_sectors_matches_surfaces(self, layout, surface_2002):
        assert layout.total_sectors == 2 * surface_2002.sectors_per_surface

    def test_locate_lba_zero_is_outer_track(self, layout):
        addr = layout.locate(0)
        assert addr.cylinder == 0
        assert addr.surface == 0
        assert addr.sector == 0
        assert addr.zone == 0

    def test_roundtrip_sampled(self, layout):
        step = max(layout.total_sectors // 997, 1)
        for lba in range(0, layout.total_sectors, step):
            addr = layout.locate(lba)
            assert layout.lba_of(addr.cylinder, addr.surface, addr.sector) == lba

    def test_mapping_is_monotone_in_cylinder(self, layout):
        previous_cylinder = 0
        step = max(layout.total_sectors // 500, 1)
        for lba in range(0, layout.total_sectors, step):
            cylinder = layout.cylinder_of(lba)
            assert cylinder >= previous_cylinder
            previous_cylinder = cylinder

    def test_last_lba_is_innermost(self, layout):
        addr = layout.locate(layout.total_sectors - 1)
        assert addr.cylinder == layout.cylinders - 1

    def test_rejects_out_of_range(self, layout):
        with pytest.raises(SimulationError):
            layout.locate(layout.total_sectors)
        with pytest.raises(SimulationError):
            layout.locate(-1)

    def test_lba_of_validates(self, layout):
        with pytest.raises(SimulationError):
            layout.lba_of(-1, 0, 0)
        with pytest.raises(SimulationError):
            layout.lba_of(0, 2, 0)
        with pytest.raises(SimulationError):
            layout.lba_of(0, 0, 10**9)

    def test_locate_tuple_matches_locate(self, layout):
        step = max(layout.total_sectors // 997, 1)
        for lba in list(range(0, layout.total_sectors, step)) + [layout.total_sectors - 1]:
            addr = layout.locate(lba)
            assert layout.locate_tuple(lba) == (
                addr.cylinder, addr.surface, addr.sector, addr.sectors_per_track
            )
            assert addr.sectors_per_track == layout.sectors_per_track_at(addr.cylinder)
        with pytest.raises(SimulationError):
            layout.locate_tuple(layout.total_sectors)
        with pytest.raises(SimulationError):
            layout.locate_tuple(-1)

    def test_sectors_per_track_decreases_inward(self, layout):
        outer = layout.sectors_per_track_at(0)
        inner = layout.sectors_per_track_at(layout.cylinders - 1)
        assert outer > inner


@pytest.fixture
def mechanics(layout):
    seek = SeekModel(
        SeekParameters(track_to_track_ms=0.4, average_ms=3.6, full_stroke_ms=7.5),
        cylinders=layout.cylinders,
    )
    return DiskMechanics(layout, seek, rpm=15000.0)


def _reference_service(mechanics, start_ms, head_cylinder, lba, sectors):
    """The chunk walk spelled out with the public per-step helpers
    (:meth:`DiskLayout.locate`, :meth:`DiskMechanics.sector_angle`,
    :func:`wait_for_angle_ms`), against which the inlined hot path must
    agree bit for bit."""
    seek = rotational = switch = transfer = 0.0
    t = start_ms + mechanics.controller_overhead_ms
    cylinder, surface = head_cylinder, None
    remaining, position = sectors, lba
    while remaining > 0:
        addr = mechanics.layout.locate(position)
        if addr.cylinder != cylinder:
            step = (
                mechanics.seek_model.seek_time_ms(abs(addr.cylinder - cylinder))
                + mechanics.settle_ms
            )
            seek += step
            t += step
            cylinder = addr.cylinder
        elif surface is not None and addr.surface != surface:
            switch += mechanics.head_switch_ms
            t += mechanics.head_switch_ms
        surface = addr.surface
        target = mechanics.sector_angle(addr.cylinder, addr.surface, addr.sector)
        wait = wait_for_angle_ms(t, target, mechanics.rpm)
        rotational += wait
        t += wait
        chunk = min(remaining, addr.sectors_per_track - addr.sector)
        moved = chunk * mechanics.period_ms / addr.sectors_per_track
        transfer += moved
        t += moved
        remaining -= chunk
        position += chunk
    return (seek, rotational, switch, transfer), cylinder


class TestDiskMechanics:
    @pytest.mark.parametrize("rpm", [15000.0, 10000.0, 12345.0])
    def test_access_matches_reference_walk_bitwise(self, mechanics, layout, rpm):
        # 15,000 RPM has a power-of-two period (4 ms), which hides
        # reordered divisions; the other speeds do not.
        mechanics = DiskMechanics(layout, mechanics.seek_model, rpm=rpm)
        rng = random.Random(7)
        spt = layout.sectors_per_track_at(0)
        for _ in range(400):
            sectors = rng.choice([1, 8, 64, spt - 1, spt + 3, 3 * spt])
            lba = rng.randrange(layout.total_sectors - sectors)
            head = rng.randrange(layout.cylinders)
            start = rng.uniform(0.0, 5000.0)
            breakdown, first, final = mechanics.access(start, head, lba, sectors)
            parts, ref_final = _reference_service(mechanics, start, head, lba, sectors)
            assert (
                breakdown.seek_ms,
                breakdown.rotational_ms,
                breakdown.head_switch_ms,
                breakdown.transfer_ms,
            ) == parts
            assert final == ref_final
            assert first == layout.cylinder_of(lba)
            assert mechanics.service(start, head, lba, sectors) == (breakdown, final)

    def test_access_rejects_negative_time(self, mechanics):
        with pytest.raises(ReproError, match="time cannot be negative"):
            mechanics.access(-5.0, 0, 0, 1)

    def test_single_sector_read_components(self, mechanics):
        breakdown, end_cyl = mechanics.service(0.0, 0, 0, 1)
        assert breakdown.seek_ms == 0.0
        assert 0.0 <= breakdown.rotational_ms < mechanics.period_ms
        assert breakdown.transfer_ms > 0
        assert end_cyl == 0

    def test_cross_cylinder_seek_charged(self, mechanics, layout):
        far_lba = layout.lba_of(layout.cylinders - 1, 0, 0)
        breakdown, end_cyl = mechanics.service(0.0, 0, far_lba, 1)
        assert breakdown.seek_ms == pytest.approx(7.5 + mechanics.settle_ms)
        assert end_cyl == layout.cylinders - 1

    def test_sequential_same_track_no_extra_rotation(self, mechanics, layout):
        spt = layout.sectors_per_track_at(0)
        breakdown, _ = mechanics.service(0.0, 0, 0, spt // 2)
        # Transfer of half a track takes half a revolution.
        assert breakdown.transfer_ms == pytest.approx(
            mechanics.period_ms * (spt // 2) / spt
        )

    def test_track_boundary_charges_head_switch(self, mechanics, layout):
        spt = layout.sectors_per_track_at(0)
        breakdown, _ = mechanics.service(0.0, 0, 0, spt + 1)
        assert breakdown.head_switch_ms == pytest.approx(mechanics.head_switch_ms)

    def test_skew_keeps_sequential_cheap(self, mechanics, layout):
        # Reading two full tracks costs 2 revolutions of transfer plus at
        # most one revolution of initial latency plus the head switch; the
        # skew must prevent an extra full revolution at the track boundary.
        spt = layout.sectors_per_track_at(0)
        breakdown, _ = mechanics.service(0.0, 0, 0, 2 * spt)
        assert breakdown.rotational_ms < mechanics.period_ms
        assert breakdown.total_ms < 3.3 * mechanics.period_ms

    def test_service_total_is_sum(self, mechanics):
        breakdown, _ = mechanics.service(0.0, 0, 12345, 64)
        assert breakdown.total_ms == pytest.approx(
            breakdown.overhead_ms
            + breakdown.seek_ms
            + breakdown.rotational_ms
            + breakdown.head_switch_ms
            + breakdown.transfer_ms
        )

    def test_rejects_oversized_access(self, mechanics, layout):
        with pytest.raises(SimulationError):
            mechanics.service(0.0, 0, layout.total_sectors - 1, 2)

    def test_rejects_zero_sectors(self, mechanics):
        with pytest.raises(SimulationError):
            mechanics.service(0.0, 0, 0, 0)

    def test_higher_rpm_faster_transfer(self, layout):
        seek = SeekModel(
            SeekParameters(track_to_track_ms=0.4, average_ms=3.6, full_stroke_ms=7.5),
            cylinders=layout.cylinders,
        )
        slow = DiskMechanics(layout, seek, rpm=10000.0)
        fast = DiskMechanics(layout, seek, rpm=20000.0)
        b_slow, _ = slow.service(0.0, 0, 0, 64)
        b_fast, _ = fast.service(0.0, 0, 0, 64)
        assert b_fast.transfer_ms == pytest.approx(b_slow.transfer_ms / 2)

    def test_average_access_rule_of_thumb(self, mechanics):
        assert mechanics.average_access_ms() == pytest.approx(3.6 + 2.0, abs=0.2)

    def test_rejects_nonpositive_rpm(self, layout):
        seek = SeekModel(
            SeekParameters(track_to_track_ms=0.4, average_ms=3.6, full_stroke_ms=7.5),
            cylinders=layout.cylinders,
        )
        with pytest.raises(SimulationError):
            DiskMechanics(layout, seek, rpm=0.0)
