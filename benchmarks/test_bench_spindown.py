"""Extension benchmark: classic spin-down power management vs staying on.

The related-work context (§2): laptop-style spin-down trades energy for
spin-up latency, and the paper notes it is hard to apply to servers (short
idle periods, mechanical stress).  This bench quantifies the trade-off on
a bursty workload: the energy saved and the latency paid across idle
timeouts — the backdrop against which multi-speed/DTM approaches were
proposed.
"""

from conftest import run_once

from repro.dtm import SpinManagedDisk, SpinPolicy
from repro.reporting import format_table
from repro.simulation.disk import standard_disk
from repro.simulation.events import EventQueue
from repro.workloads import Trace, TraceRecord


def _bursty_trace(bursts=20, per_burst=12, gap_ms=8000.0):
    records = []
    t = 0.0
    lba = 0
    for _ in range(bursts):
        for _ in range(per_burst):
            records.append(TraceRecord(t, lba % 3_000_000, 8, False))
            t += 6.0
            lba += 77_777
        t += gap_ms
    return Trace(name="bursty-archive", records=records)


def _managed(idle_timeout_ms):
    events = EventQueue()
    disk = standard_disk(
        name="pm",
        events=events,
        diameter_in=2.6,
        platters=1,
        kbpi=500,
        ktpi=30,
        rpm=10000,
    )
    return SpinManagedDisk(disk, SpinPolicy(idle_timeout_ms=idle_timeout_ms))


def test_spindown_tradeoff(benchmark, emit):
    def run():
        rows = []
        for timeout in (None, 4000.0, 1000.0, 250.0):
            managed = _managed(timeout)
            report = managed.run_trace(_bursty_trace())
            rows.append(
                (
                    "always-on" if timeout is None else f"{timeout:.0f} ms",
                    report.energy_j,
                    report.stats.mean_ms(),
                    report.stats.max_ms(),
                    report.spin_ups,
                    report.standby_fraction,
                )
            )
        return rows

    rows = run_once(benchmark, run)
    emit(
        "spindown_tradeoff",
        format_table(
            ["idle timeout", "energy J", "mean ms", "max ms", "spin-ups", "standby frac"],
            [
                [label, f"{e:.0f}", f"{m:.2f}", f"{mx:.0f}", s, f"{f:.2f}"]
                for label, e, m, mx, s, f in rows
            ],
        )
        + "\n(aggressive timeouts save energy but every burst leader pays a"
        "\nmulti-second spin-up — why the paper's server line moved to"
        "\nmulti-speed disks and DTM instead)",
    )

    by_label = {label: (e, m, mx, s, f) for label, e, m, mx, s, f in rows}
    energy_on = by_label["always-on"][0]
    energy_eager = by_label["250 ms"][0]
    assert energy_eager < 0.7 * energy_on  # real energy savings
    assert by_label["250 ms"][2] > 1500.0  # but multi-second worst case
    assert by_label["always-on"][2] < 500.0
    # More aggressive timeouts spin down at least as often.
    assert by_label["250 ms"][3] >= by_label["4000 ms"][3]
