"""A reactive DTM controller in the storage-simulation loop.

The paper sketches DTM mechanisms and leaves control policies to future
work; this module provides the straightforward reactive policy as an
extension: a thermally coupled storage system where

* the drive runs at an *average-case* RPM above what the worst-case
  envelope would allow,
* a thermal model is stepped alongside the event-driven simulation, its
  VCM heat scaled by the observed seek activity, and
* when the modeled air temperature crosses a trigger threshold, the
  controller gates incoming requests (and optionally drops to a low RPM
  level) until the temperature falls below a resume threshold.

Requests arriving while throttled are queued at the gate; their response
times include the throttle delay, exposing the performance cost of DTM.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, Optional, Sized

from repro.constants import THERMAL_ENVELOPE_C
from repro.dtm.multispeed import MultiSpeedProfile
from repro.errors import DTMError
from repro.simulation.events import EventQueue
from repro.simulation.request import Request
from repro.simulation.statistics import ResponseTimeStats
from repro.simulation.system import StorageSystem

if TYPE_CHECKING:  # pragma: no cover - cycle broken at runtime
    from repro.dtm.policies import ThermalPolicy
    from repro.faults import ThermalEmergencyModel
    from repro.telemetry import Telemetry
from repro.thermal.model import DriveThermalModel
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class DTMPolicy:
    """Reactive throttling policy parameters.

    Attributes:
        envelope_c: hard thermal limit.
        trigger_margin_c: throttle when air rises above
            ``envelope - trigger_margin``.
        resume_margin_c: resume when air falls below
            ``envelope - resume_margin`` (must exceed the trigger margin —
            this is the hysteresis band).
        check_interval_ms: how often the controller samples the thermal
            model and updates its decision.
        speed_profile: optional multi-speed profile; when present, the
            controller drops to the bottom level while throttled
            (scenario (b)); otherwise it only gates requests
            (scenario (a)).
    """

    envelope_c: float = THERMAL_ENVELOPE_C
    trigger_margin_c: float = 0.02
    resume_margin_c: float = 0.10
    check_interval_ms: float = 100.0
    speed_profile: Optional[MultiSpeedProfile] = None

    def __post_init__(self) -> None:
        if self.trigger_margin_c < 0:
            raise DTMError("trigger margin cannot be negative")
        if self.resume_margin_c <= self.trigger_margin_c:
            raise DTMError(
                "resume margin must exceed trigger margin (hysteresis band)"
            )
        if self.check_interval_ms <= 0:
            raise DTMError("check interval must be positive")

    @property
    def trigger_c(self) -> float:
        return self.envelope_c - self.trigger_margin_c

    @property
    def resume_c(self) -> float:
        return self.envelope_c - self.resume_margin_c


@dataclass
class DTMReport:
    """Outcome of a thermally managed trace replay.

    Attributes:
        stats: logical response-time statistics (gate delay included).
        max_air_c: hottest modeled air temperature observed.
        throttled_ms: total simulated time spent throttled.
        simulated_ms: total simulated time.
        throttle_events: number of throttle engagements.
        emergency_events: number of emergency-throttle engagements
            (envelope breach or injected thermal emergency).
    """

    stats: ResponseTimeStats
    max_air_c: float
    throttled_ms: float
    simulated_ms: float
    throttle_events: int = 0
    emergency_events: int = 0

    @property
    def throttled_fraction(self) -> float:
        if self.simulated_ms <= 0:
            return 0.0
        return min(self.throttled_ms / self.simulated_ms, 1.0)


class ThermallyManagedSystem:
    """A storage system under reactive dynamic thermal management.

    Args:
        system: the storage system to protect.
        thermal: thermal model of the (representative) member drive,
            already configured at the average-case RPM.
        policy: the reactive policy.
        emergency_model: optional injected thermal-emergency source
            (fault injection); independent of it, a genuine envelope
            breach always takes the emergency path.
    """

    def __init__(
        self,
        system: StorageSystem,
        thermal: DriveThermalModel,
        policy: DTMPolicy,
        telemetry: Optional["Telemetry"] = None,
        emergency_model: Optional["ThermalEmergencyModel"] = None,
    ) -> None:
        from repro.telemetry import maybe

        self.system = system
        self.thermal = thermal
        self.policy = policy
        self.emergency_model = emergency_model
        self.gate_open = True
        self.in_emergency = False
        self._emergency_rpm: Optional[float] = None
        self._gated: Deque[Request] = deque()
        self._last_check_ms = 0.0
        self._busy_snapshot = 0.0
        self.report = DTMReport(
            stats=system.stats, max_air_c=thermal.air_c(), throttled_ms=0.0, simulated_ms=0.0
        )
        self._full_rpm = thermal.rpm
        if policy.speed_profile is not None:
            if policy.speed_profile.top_rpm != thermal.rpm:
                raise DTMError(
                    "speed profile's top level must match the thermal model RPM"
                )
        self._tel = maybe(telemetry)
        if self._tel is not None:
            thermal.attach_probes(self._tel.probes)
            self._tel.probes.add(
                "dtm.gate_open", lambda: 1.0 if self.gate_open else 0.0
            )
            self._tel.probes.add(
                "dtm.gated_requests", lambda: float(len(self._gated))
            )

    # -- trace replay ----------------------------------------------------------------

    def run_trace(self, trace: Trace, max_extra_ms: float = 300_000.0) -> DTMReport:
        """Replay a trace with the controller in the loop.

        Args:
            trace: the workload.
            max_extra_ms: runaway guard — if the simulation runs this far
                past the last arrival without draining (e.g. a resume
                threshold below the cooling-mode steady temperature keeps
                the gate shut forever), a DTMError is raised.
        """
        self.report.simulated_ms = _replay_under_control(
            self.system,
            trace,
            self._arrive,
            self._schedule_check,
            self._gated,
            max_extra_ms,
            "DTM controller never drained the workload: the policy "
            "appears unable to resume (is the resume threshold below "
            "the cooling-mode steady temperature?)",
        )
        return self.report

    # -- internals ---------------------------------------------------------------------

    def _arrive(self, request: Request, now_ms: float) -> None:
        if self.gate_open:
            self.system.array.submit(request)
        else:
            self._gated.append(request)

    def _schedule_check(self) -> None:
        self.system.events.schedule_after(
            self.policy.check_interval_ms, lambda t: self._check(t)
        )

    def _check(self, now_ms: float) -> None:
        interval_ms = now_ms - self._last_check_ms
        self._last_check_ms = now_ms
        if interval_ms > 0:
            self._busy_snapshot = _advance_thermal(
                self.system,
                self.thermal,
                interval_ms,
                self._busy_snapshot,
                gated=not self.gate_open,
            )
        air = self.thermal.air_c()
        self.report.max_air_c = max(self.report.max_air_c, air)
        if self._tel is not None:
            # The controller's periodic check is the thermal sampling
            # cadence: probes ride it instead of scheduling their own.
            self._tel.probes.sample_all(now_ms)
            self._tel.record(
                now_ms, "dtm_check", "dtm", air_c=air, gate_open=self.gate_open
            )
        emergency = air >= self.policy.envelope_c or (
            self.emergency_model is not None
            and self.emergency_model.should_trigger(air, self.policy.envelope_c)
        )
        if emergency and not self.in_emergency:
            self._engage_emergency(air)
        elif self.gate_open and air >= self.policy.trigger_c:
            self._engage_throttle()
        elif not self.gate_open and air <= self.policy.resume_c:
            self._release_throttle()
        if not self.gate_open:
            self.report.throttled_ms += self.policy.check_interval_ms
        if (
            len(self.system.events) > 0
            or self.system.array.in_flight() > 0
            or self._gated
        ):
            self._schedule_check()

    def _engage_throttle(self) -> None:
        self.gate_open = False
        self.report.throttle_events += 1
        if self._tel is not None:
            self._tel.record(
                self.system.events.now_ms,
                "dtm_throttle",
                "dtm",
                air_c=self.thermal.air_c(),
                rpm_drop=self.policy.speed_profile is not None,
            )
            self._tel.count("dtm.throttle_engagements")
        if self.policy.speed_profile is not None:
            low = self.policy.speed_profile.bottom_rpm
            self.thermal.set_operating_state(rpm=low, vcm_active=False)
            for disk in self.system.disks:
                disk.set_rpm(low)
        else:
            self.thermal.set_operating_state(vcm_active=False)

    def _engage_emergency(self, air_c: float) -> None:
        """Emergency throttle: the envelope is breached (or an injected
        thermal emergency fired).  Instead of treating the breach as an
        error, degrade gracefully — gate requests and drop the spindle to
        the fastest speed the drive can cool at — then recover through the
        normal resume hysteresis."""
        if self.gate_open:
            self._engage_throttle()
        self.in_emergency = True
        self.report.emergency_events += 1
        low = self._emergency_target_rpm()
        self.thermal.set_operating_state(rpm=low, vcm_active=False)
        for disk in self.system.disks:
            disk.set_rpm(low)
        if self._tel is not None:
            self._tel.record(
                self.system.events.now_ms,
                "dtm_emergency",
                "dtm",
                air_c=air_c,
                rpm=low,
                envelope_c=self.policy.envelope_c,
            )
            self._tel.count("dtm.emergency_engagements")

    def _emergency_target_rpm(self) -> float:
        """The RPM the emergency path degrades to (computed once)."""
        if self.policy.speed_profile is not None:
            return self.policy.speed_profile.bottom_rpm
        if self._emergency_rpm is None:
            from repro.dtm.throttling import emergency_rpm_for

            self._emergency_rpm = emergency_rpm_for(
                self.thermal, self.policy.envelope_c, self._full_rpm
            )
        return self._emergency_rpm

    def _release_throttle(self) -> None:
        self.gate_open = True
        restore_disks = self.policy.speed_profile is not None or self.in_emergency
        self.in_emergency = False
        if self._tel is not None:
            self._tel.record(
                self.system.events.now_ms,
                "dtm_resume",
                "dtm",
                air_c=self.thermal.air_c(),
                released=len(self._gated),
            )
            self._tel.count("dtm.resumes")
        self.thermal.set_operating_state(rpm=self._full_rpm, vcm_active=True)
        if restore_disks:
            for disk in self.system.disks:
                disk.set_rpm(self._full_rpm)
        while self._gated:
            self.system.array.submit(self._gated.popleft())


def events_only_checks(events: EventQueue) -> bool:
    """Heuristic terminal condition: nothing left but controller checks.

    The controller's periodic check is the only self-rescheduling event, so
    when at most one event remains the I/O side is finished.
    """
    return len(events) <= 1


def _replay_under_control(
    system: StorageSystem,
    trace: Trace,
    arrive: Callable[[Request, float], None],
    schedule_check: Callable[[], None],
    held: Sized,
    max_extra_ms: float,
    stall_message: str,
) -> float:
    """Replay a trace through a controller's ``arrive(request, now_ms)``
    hook and periodic check; returns the simulated drain time.

    Runs until all I/O completes, nothing is ``held`` back by the
    controller and only its self-rescheduling check remains queued;
    raises a DTMError with ``stall_message`` once it runs
    ``max_extra_ms`` past the last arrival without draining.
    """
    events = system.events
    last_arrival = 0.0
    arrivals = []
    for record in trace:
        last_arrival = max(last_arrival, record.time_ms)
        request = Request(
            arrival_ms=record.time_ms,
            lba=record.lba,
            sectors=record.sectors,
            is_write=record.is_write,
        )
        arrivals.append((record.time_ms, partial(arrive, request)))
    events.schedule_batch(arrivals)
    schedule_check()
    deadline = last_arrival + max_extra_ms
    while len(events) > 0:
        events.step()
        if system.array.in_flight() == 0 and not held and events_only_checks(events):
            break
        if events.now_ms > deadline:
            raise DTMError(stall_message)
    return events.now_ms


def _advance_thermal(
    system: StorageSystem,
    thermal: DriveThermalModel,
    interval_ms: float,
    busy_snapshot_ms: float,
    gated: bool = False,
) -> float:
    """Step the thermal model over one controller interval, with the VCM
    heat scaled by the members' busy duty since ``busy_snapshot_ms`` (zero
    while ``gated``); returns the new busy-time snapshot."""
    busy_ms = sum(d.stats.busy_ms for d in system.disks)
    delta_ms = busy_ms - busy_snapshot_ms
    duty = min(delta_ms / (interval_ms * len(system.disks)), 1.0)
    thermal.set_vcm_duty(0.0 if gated else duty)
    thermal.network.step(interval_ms / 1000.0)
    return busy_ms


class PolicyManagedSystem:
    """A storage system driven by a pluggable :class:`ThermalPolicy`.

    Generalizes :class:`ThermallyManagedSystem`: the policy may gate
    admission, enforce a minimum inter-issue gap (request spacing), or
    command a spindle speed (DRPM ladders) — the §5.4 design space.

    Args:
        system: the storage system under management.
        thermal: thermal model of the representative member drive.
        policy: the control policy.
        check_interval_ms: thermal-model/controller update period.
    """

    def __init__(
        self,
        system: StorageSystem,
        thermal: DriveThermalModel,
        policy: "ThermalPolicy",
        check_interval_ms: float = 50.0,
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        from repro.dtm.policies import ThermalPolicy
        from repro.telemetry import maybe

        if not isinstance(policy, ThermalPolicy):
            raise DTMError("policy must be a ThermalPolicy")
        if check_interval_ms <= 0:
            raise DTMError("check interval must be positive")
        self.system = system
        self.thermal = thermal
        self.policy = policy
        self.check_interval_ms = check_interval_ms
        self._pending: Deque[Request] = deque()
        self._admit = True
        self._gap_ms = 0.0
        self._last_issue_ms = -1e18
        self._last_check_ms = 0.0
        self._busy_snapshot = 0.0
        self._current_rpm = thermal.rpm
        self.rpm_changes = 0
        self.report = DTMReport(
            stats=system.stats,
            max_air_c=thermal.air_c(),
            throttled_ms=0.0,
            simulated_ms=0.0,
        )
        self._tel = maybe(telemetry)
        if self._tel is not None:
            thermal.attach_probes(self._tel.probes)
            self._tel.probes.add(
                "dtm.admit", lambda: 1.0 if self._admit else 0.0
            )
            self._tel.probes.add("dtm.issue_gap_ms", lambda: self._gap_ms)
            self._tel.probes.add(
                "dtm.pending_requests", lambda: float(len(self._pending))
            )

    # -- trace replay -----------------------------------------------------------

    def run_trace(self, trace: Trace, max_extra_ms: float = 300_000.0) -> DTMReport:
        """Replay a trace under the policy.

        Args:
            trace: the workload.
            max_extra_ms: runaway guard past the last arrival (see
                :meth:`ThermallyManagedSystem.run_trace`).
        """
        self.report.simulated_ms = _replay_under_control(
            self.system,
            trace,
            self._arrive,
            self._schedule_check,
            self._pending,
            max_extra_ms,
            "policy never drained the workload within the guard "
            "window: it cannot recover admission at this design "
            "point (check thresholds against the cooling-mode "
            "steady temperature)",
        )
        return self.report

    # -- internals -----------------------------------------------------------------

    def _arrive(self, request: Request, now: float) -> None:
        self._pending.append(request)
        self._drain(now)

    def _drain(self, now: float) -> None:
        """Issue pending requests subject to admission and spacing."""
        while self._pending and self._admit:
            # Compute the remaining wait rather than the absolute release
            # time: with floats, last_issue + gap can round to <= now even
            # while now - last_issue < gap, which would re-fire the release
            # event at a frozen timestamp forever.
            wait = self._gap_ms - (now - self._last_issue_ms)
            if self._gap_ms > 0 and wait > 1e-9:
                self.system.events.schedule(now + wait, lambda t: self._drain(t))
                return
            self.system.array.submit(self._pending.popleft())
            self._last_issue_ms = now

    def _schedule_check(self) -> None:
        self.system.events.schedule_after(
            self.check_interval_ms, lambda t: self._check(t)
        )

    def _check(self, now: float) -> None:
        interval = now - self._last_check_ms
        self._last_check_ms = now
        if interval > 0:
            self._busy_snapshot = _advance_thermal(
                self.system, self.thermal, interval, self._busy_snapshot
            )
        air = self.thermal.air_c()
        self.report.max_air_c = max(self.report.max_air_c, air)
        action = self.policy.decide(air, now)
        if self._tel is not None:
            self._tel.probes.sample_all(now)
            self._tel.record(
                now,
                "dtm_check",
                "dtm",
                air_c=air,
                admit=action.admit,
                issue_gap_ms=action.issue_gap_ms,
                rpm=action.rpm,
            )
        if not action.admit:
            self.report.throttled_ms += self.check_interval_ms
            if self._admit:
                self.report.throttle_events += 1
                if self._tel is not None:
                    self._tel.record(now, "dtm_throttle", "dtm", air_c=air)
                    self._tel.count("dtm.throttle_engagements")
        elif not self._admit and self._tel is not None:
            self._tel.record(now, "dtm_resume", "dtm", air_c=air)
            self._tel.count("dtm.resumes")
        self._admit = action.admit
        self._gap_ms = action.issue_gap_ms
        if action.rpm is not None and action.rpm != self._current_rpm:
            if self._tel is not None:
                self._tel.record(
                    now,
                    "rpm_change",
                    "dtm",
                    from_rpm=self._current_rpm,
                    to_rpm=action.rpm,
                )
            self._current_rpm = action.rpm
            self.rpm_changes += 1
            self.thermal.set_operating_state(rpm=action.rpm)
            for disk in self.system.disks:
                disk.set_rpm(action.rpm)
        self._drain(now)
        if (
            len(self.system.events) > 0
            or self.system.array.in_flight() > 0
            or self._pending
        ):
            self._schedule_check()
