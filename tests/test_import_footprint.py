"""Import budget of the CLI paths that compute nothing.

A warm Figure-4 sweep (every point a store hit), ``repro --help`` and
``import repro.service`` spend their time on interpreter start-up and
imports, so what they import is what they cost.  Each probe runs in a
fresh interpreter and reports which of the heavy modules it loaded:

* the all-hit sweep must load neither the simulator nor an execution
  backend (``multiprocessing`` comes with the process backend);
* ``--help`` and the service import must stay clear of numpy and the
  simulator.

The cold sweep in the same test loads the simulator, which proves the
probe would see a regression.  Nothing here reads a clock.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Modules a warm all-hit sweep has no use for.
WARM_FORBIDDEN = (
    "multiprocessing",
    "concurrent.futures.process",
    "repro.simulation.system",
    "repro.simulation.disk",
    "repro.simulation.array",
    "repro.simulation.backends.process",
    "repro.simulation.backends.shared_store",
    "repro.capacity",
    "repro.geometry",
    "numpy",
)

#: Modules ``repro --help`` and ``import repro.service`` have no use for.
STARTUP_FORBIDDEN = ("numpy", "repro.simulation.system")

_PROBE = """\
import json, sys
argv, probes = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if argv is None:
    import repro.service
    rc = 0
else:
    from repro.cli import main
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
print(json.dumps({"rc": rc, "loaded": [m for m in probes if m in sys.modules]}))
"""


def _probe(argv, probes) -> Dict[str, Any]:
    """Run ``repro.cli.main(argv)`` (or ``import repro.service`` when
    ``argv`` is None) in a fresh interpreter; return its exit code, the
    loaded subset of ``probes`` and the CLI's own output lines."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv), json.dumps(list(probes))],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    *output, report = proc.stdout.splitlines()
    record: Dict[str, Any] = json.loads(report)
    record["output"] = output
    return record


def _sweep_argv(store: Path, results: Path, workers: int) -> List[str]:
    return [
        "sweep", "workload", "tpcc,oltp", "--steps", "2", "-n", "200",
        "-w", str(workers), "--backend", "process",
        "--store-dir", str(store), "--results-out", str(results),
    ]


def test_warm_all_hit_sweep_loads_neither_simulator_nor_backends(tmp_path):
    store = tmp_path / "store"
    cold_out, warm_out = tmp_path / "cold.json", tmp_path / "warm.json"

    # One worker keeps the cold replays in this process, where the probe
    # sees the simulator load.
    cold = _probe(_sweep_argv(store, cold_out, workers=1), WARM_FORBIDDEN)
    assert cold["rc"] == 0
    assert "store: 0 hit(s), 4 miss(es)" in "\n".join(cold["output"])
    assert "repro.simulation.system" in cold["loaded"]

    # Two workers ask for a process pool, which an all-hit run never builds.
    warm = _probe(_sweep_argv(store, warm_out, workers=2), WARM_FORBIDDEN)
    assert warm["rc"] == 0
    assert "store: 4 hit(s), 0 miss(es)" in "\n".join(warm["output"])
    assert warm["loaded"] == []
    assert warm_out.read_bytes() == cold_out.read_bytes()


def test_help_loads_neither_numpy_nor_simulator():
    record = _probe(["--help"], STARTUP_FORBIDDEN)
    assert record["rc"] == 0
    assert record["loaded"] == []


def test_service_import_loads_neither_numpy_nor_simulator():
    record = _probe(None, STARTUP_FORBIDDEN)
    assert record["loaded"] == []
