"""Operation and output-check accounting shared by every workload.

An operation is a sweep task, a CLI invocation, an HTTP request or an
output check.  Each is counted as attempted, and as failed when it
raised, exited non-zero, answered non-2xx or produced bytes that differ
from the reference.  ``error_rate`` is failed over attempted; a run is
correct only when nothing failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Optional


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_bytes(value: Any) -> bytes:
    """Stable bytes for a summary built by the benchmark itself (floats
    keep every digit), independent of the program's own codec."""
    return json.dumps(value, sort_keys=True, allow_nan=False).encode("utf-8")


class Checks:
    """Counts attempted and failed operations and keeps failure notes."""

    #: failures kept verbatim in the report; the count is always exact
    MAX_NOTES = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def record(self, ok: bool, what: str, attempts: int = 1) -> bool:
        """Count ``attempts`` operations, all failed unless ``ok``."""
        self.attempted += attempts
        if not ok:
            self.failed += attempts
            if len(self.notes) < self.MAX_NOTES:
                self.notes.append(what)
        return ok

    def status(self, status: int, what: str) -> bool:
        """One HTTP request: anything outside 2xx is a failure."""
        return self.record(200 <= status < 300, f"{what}: HTTP {status}")

    def equal(self, actual: Any, expected: Any, what: str) -> bool:
        return self.record(actual == expected, f"{what}: {actual!r} != {expected!r}")

    def digest(self, data: bytes, expected: str, what: str) -> bool:
        return self.equal(sha256(data), expected, f"{what} sha256")

    def close(
        self, actual: Dict[str, float], expected: Dict[str, float], tol: float, what: str
    ) -> bool:
        """Every value within ``tol`` of its pinned counterpart."""
        ok = set(actual) == set(expected) and all(
            math.isfinite(actual[k]) and abs(actual[k] - expected[k]) <= tol
            for k in expected
        )
        return self.record(ok, f"{what}: {actual!r} not within {tol} of {expected!r}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def result_line(
    checks: Checks, metrics: Dict[str, float], units: Dict[str, str]
) -> Dict[str, Any]:
    """The result object the benchmark prints as its last line."""
    return {
        "correct": checks.correct,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed if checks.attempted else 1,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }


def expected_digest(pins: Dict[str, Any], table: str, seed: int) -> Optional[str]:
    """The pinned digest for ``seed``, or None when the seed is unpinned."""
    return pins.get(table, {}).get(str(seed))
