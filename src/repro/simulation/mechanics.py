"""Mechanical timing of a disk access.

Given the head position and the platter's (continuously rotating) angular
position, computes the seek, rotational-latency, head-switch and media
transfer components of servicing a request — including multi-track and
multi-cylinder transfers with track/cylinder skew, the mechanism that lets
sequential reads continue across track boundaries without losing a whole
revolution.

Skews are derived from the head-switch and track-to-track seek times at the
configured RPM, as real drives do, so sequential throughput stays sensible
across the large RPM sweeps of the paper's Figure 4 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ReproError, SimulationError
from repro.performance.seek import SeekModel
from repro.simulation.layout import DiskLayout
from repro.units import rotation_time_ms


@dataclass
class ServiceBreakdown:
    """Timing components of one mechanical access, in milliseconds."""

    overhead_ms: float = 0.0
    seek_ms: float = 0.0
    rotational_ms: float = 0.0
    head_switch_ms: float = 0.0
    transfer_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return (
            self.overhead_ms
            + self.seek_ms
            + self.rotational_ms
            + self.head_switch_ms
            + self.transfer_ms
        )


class DiskMechanics:
    """Timing engine for one disk.

    Args:
        layout: the disk's LBA mapping.
        seek_model: seek-time curve.
        rpm: spindle speed.
        head_switch_ms: time to activate an adjacent head in a cylinder.
        settle_ms: extra settle time after any seek.
        controller_overhead_ms: fixed per-request command processing.
        skew_margin_rev: extra angular margin added to computed skews.
    """

    def __init__(
        self,
        layout: DiskLayout,
        seek_model: SeekModel,
        rpm: float,
        head_switch_ms: float = 0.3,
        settle_ms: float = 0.1,
        controller_overhead_ms: float = 0.2,
        skew_margin_rev: float = 0.02,
    ) -> None:
        if rpm <= 0:
            raise SimulationError(f"rpm must be positive, got {rpm}")
        self.layout = layout
        self.seek_model = seek_model
        self.rpm = rpm
        self.head_switch_ms = head_switch_ms
        self.settle_ms = settle_ms
        self.controller_overhead_ms = controller_overhead_ms
        self.period_ms = rotation_time_ms(rpm)
        track_to_track = seek_model.parameters.track_to_track_ms + settle_ms
        self.track_skew_rev = min(0.45, head_switch_ms / self.period_ms + skew_margin_rev)
        self.cylinder_skew_rev = min(0.45, track_to_track / self.period_ms + skew_margin_rev)

    # -- angular bookkeeping ----------------------------------------------------

    def track_skew(self, cylinder: int, surface: int) -> float:
        """Angular offset (revolutions) of sector 0 on a track."""
        return (
            cylinder * self.cylinder_skew_rev + surface * self.track_skew_rev
        ) % 1.0

    def sector_angle(self, cylinder: int, surface: int, sector: int) -> float:
        """Angular position (revolutions) of the start of a sector."""
        spt = self.layout.sectors_per_track_at(cylinder)
        if not 0 <= sector < spt:
            raise SimulationError(f"sector {sector} out of range (spt {spt})")
        return (sector / spt + self.track_skew(cylinder, surface)) % 1.0

    # -- service timing -----------------------------------------------------------

    def service(
        self,
        start_ms: float,
        head_cylinder: int,
        lba: int,
        sectors: int,
    ) -> tuple:
        """Timing of a full media access.

        Args:
            start_ms: absolute time the disk starts working on the request.
            head_cylinder: cylinder the head currently sits on.
            lba: starting logical block.
            sectors: transfer length.

        Returns:
            (breakdown, final_cylinder): the timing decomposition and the
            cylinder the head ends on.
        """
        breakdown, _, final_cylinder = self.access(start_ms, head_cylinder, lba, sectors)
        return breakdown, final_cylinder

    def access(
        self,
        start_ms: float,
        head_cylinder: int,
        lba: int,
        sectors: int,
    ) -> Tuple[ServiceBreakdown, int, int]:
        """:meth:`service` plus the cylinder the access starts on.

        Returns ``(breakdown, first_cylinder, final_cylinder)``;
        ``first_cylinder`` is the cylinder of ``lba``, the seek target.

        This is the simulator's per-request hot path, so it walks the
        chunks with the layout's tuple lookup and evaluates
        :meth:`sector_angle` and
        :func:`repro.performance.rotation.wait_for_angle_ms` inline — the
        same floating-point operations in the same order, and the same
        range checks (sector, target angle, time >= 0).
        """
        if sectors <= 0:
            raise SimulationError(f"sectors must be positive, got {sectors}")
        layout = self.layout
        if lba + sectors > layout.total_sectors:
            raise SimulationError(
                f"access [{lba}, {lba + sectors}) exceeds disk size "
                f"{layout.total_sectors}"
            )
        locate = layout.locate_tuple
        seek_time_ms = self.seek_model.seek_time_ms
        settle = self.settle_ms
        head_switch = self.head_switch_ms
        period = self.period_ms
        cylinder_skew = self.cylinder_skew_rev
        track_skew = self.track_skew_rev
        overhead = self.controller_overhead_ms
        seek_ms = rotational_ms = head_switch_ms = transfer_ms = 0.0
        t = start_ms + overhead
        current_cylinder = head_cylinder
        current_surface = None
        remaining = sectors
        position = lba
        cylinder, surface, sector, spt = locate(position)
        first_cylinder = cylinder
        while True:
            if cylinder != current_cylinder:
                seek = seek_time_ms(abs(cylinder - current_cylinder)) + settle
                seek_ms += seek
                t += seek
                current_cylinder = cylinder
            elif current_surface is not None and surface != current_surface:
                head_switch_ms += head_switch
                t += head_switch
            current_surface = surface
            if not 0 <= sector < spt:
                raise SimulationError(f"sector {sector} out of range (spt {spt})")
            target = (
                sector / spt + (cylinder * cylinder_skew + surface * track_skew) % 1.0
            ) % 1.0
            if not 0.0 <= target < 1.0:
                raise ReproError(f"target angle must be in [0, 1), got {target}")
            if t < 0:
                raise ReproError(f"time cannot be negative, got {t}")
            # After a switch or one-track seek this wait is the skew
            # alignment; with well-chosen skews it is small.
            delta = (target - (t / period) % 1.0) % 1.0
            if delta >= 1.0:
                # Float artifact: (-epsilon) % 1.0 can return exactly 1.0;
                # the head is already on target.
                delta = 0.0
            wait = delta * period
            rotational_ms += wait
            t += wait
            chunk = spt - sector
            if remaining < chunk:
                chunk = remaining
            transfer = chunk * period / spt
            transfer_ms += transfer
            t += transfer
            remaining -= chunk
            if remaining <= 0:
                break
            position += chunk
            cylinder, surface, sector, spt = locate(position)
        breakdown = ServiceBreakdown(
            overhead, seek_ms, rotational_ms, head_switch_ms, transfer_ms
        )
        return breakdown, first_cylinder, current_cylinder

    def average_access_ms(self) -> float:
        """Rule-of-thumb random access time: average seek + half rotation."""
        return self.seek_model.average_seek_ms() + self.period_ms / 2.0
