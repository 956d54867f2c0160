"""Self-test of the benchmark's correctness checks.

Usage (from the repository root)::

    python3 perfbench/selftest.py

It proves the checks cannot pass silently: the program's real output for
a pinned seed must match ``pins.json`` (so a corrupted pin fails), and
the same output with one byte flipped, a non-zero CLI exit, a fake non-2xx
response, a wrong dedup answer or a perturbed transient must each make
the run report a failure, ``correct: false`` and a non-zero
``error_rate``.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import scenarios  # noqa: E402
from checks import Checks, canonical_bytes, result_line, sha256  # noqa: E402

SEED = 1


def load_pins() -> dict:
    with open(os.path.join(BENCH_DIR, "pins.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def flip_one_byte(data: bytes) -> bytes:
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1:]


class CheckSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.pins = load_pins()
        cls.workdir = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
        os.makedirs(cls.workdir)
        cls.replay, _ = scenarios.replay_bytes(SEED)

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(cls.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(cls.workdir))

    def context(self) -> scenarios.Context:
        return scenarios.Context(ROOT, self.workdir, SEED, self.pins)

    def assert_reports_failure(self, checks: Checks) -> None:
        line = result_line(checks, {"x": 1.0}, {"x": "s"})
        self.assertFalse(line["correct"])
        self.assertGreater(line["failed"], 0)
        self.assertGreater(checks.error_rate, 0.0)

    # -- the pins themselves --

    def test_replay_output_matches_pin(self) -> None:
        self.assertEqual(sha256(self.replay), self.pins["replay"][str(SEED)])

    def test_dtm_and_fleet_outputs_match_pins(self) -> None:
        summary, max_air_c = scenarios.dtm_summary(SEED)
        self.assertEqual(sha256(canonical_bytes(summary)), self.pins["dtm"][str(SEED)])
        self.assertAlmostEqual(
            max_air_c, self.pins["dtm_max_air_c"][str(SEED)], delta=scenarios.DTM_MAX_AIR_TOL_C
        )
        data, _, _ = scenarios.fleet_bytes(SEED)
        self.assertEqual(sha256(data), self.pins["fleet"][str(SEED)])

    def test_held_out_seed_is_pinned(self) -> None:
        held_out = str(self.pins["held_out_seed"])
        for table in ("replay", "dtm", "fleet"):
            self.assertIn(held_out, self.pins[table])

    # -- each workload's check rejects a corrupted output --

    def test_flipped_byte_in_replay_results_fails(self) -> None:
        workload = scenarios.ReplayCold(self.context())
        checks = Checks()
        good = scenarios.Outcome({"replay": (4000, 0.1)}, data=self.replay, store_dir=self.workdir)
        workload.check(0, good, checks)
        self.assertTrue(checks.correct)
        workload = scenarios.ReplayCold(self.context())
        checks = Checks()
        bad = scenarios.Outcome({"replay": (4000, 0.1)}, data=flip_one_byte(self.replay), store_dir=self.workdir)
        workload.check(0, bad, checks)
        self.assert_reports_failure(checks)

    def test_flipped_byte_in_cli_output_fails(self) -> None:
        workload = scenarios.ReplayWarmCli(self.context())
        workload.reference = self.replay
        workload.out_path = os.path.join(self.workdir, "results.json")
        with open(workload.out_path, "wb") as handle:
            handle.write(flip_one_byte(self.replay))
        checks = Checks()
        workload.check(0, scenarios.Outcome({"cli": (1, 0.1)}, rc=0, err=b""), checks)
        self.assert_reports_failure(checks)

    def test_cli_nonzero_exit_fails(self) -> None:
        workload = scenarios.ReplayWarmCli(self.context())
        checks = Checks()
        workload.check(0, scenarios.Outcome({"cli": (1, 0.1)}, rc=1, err=b"boom"), checks)
        self.assert_reports_failure(checks)

    def service_outcome(self, **changes: object) -> scenarios.Outcome:
        job = {"id": "job-1", "key": "k", "deduplicated": False}
        data = {
            "config": {"seed": 1},
            "job": job,
            "terminal": {"event": "job_done"},
            "body": self.replay,
            "answers": [({"id": "job-1", "deduplicated": True}, self.replay)],
            "statuses": [(201, "POST /v1/jobs"), (200, "GET events"), (200, "GET results")],
        }
        data.update(changes)
        return scenarios.Outcome({"job": (1, 0.1), "dedup": (1, 0.001)}, **data)

    def test_fake_non_2xx_response_fails(self) -> None:
        workload = scenarios.ServiceRoundtrip(self.context())
        checks = Checks()
        workload.check(0, self.service_outcome(), checks)
        self.assertTrue(checks.correct)
        checks = Checks()
        workload.check(0, self.service_outcome(statuses=[(500, "POST /v1/jobs")]), checks)
        self.assert_reports_failure(checks)
        self.assertEqual(workload.non2xx, 1)

    def test_wrong_dedup_answer_fails(self) -> None:
        workload = scenarios.ServiceRoundtrip(self.context())
        flipped = [({"id": "job-1", "deduplicated": True}, flip_one_byte(self.replay))]
        checks = Checks()
        workload.check(0, self.service_outcome(answers=flipped), checks)
        self.assert_reports_failure(checks)
        not_deduplicated = [({"id": "job-2", "deduplicated": False}, self.replay)]
        checks = Checks()
        workload.check(0, self.service_outcome(answers=not_deduplicated), checks)
        self.assert_reports_failure(checks)

    def thermal_outcome(self, final: object) -> scenarios.Outcome:
        summary, max_air_c = scenarios.dtm_summary(SEED)
        fleet, drives, failed = scenarios.fleet_bytes(SEED)
        steps = int(round(scenarios.TRANSIENT_SEGMENT_S / scenarios.TRANSIENT_DT_S))
        return scenarios.Outcome(
            {"transient": (steps, 0.1), "dtm": (4000, 0.1), "fleet": (drives, 0.1)},
            final=final,
            summary=summary,
            max_air_c=max_air_c,
            fleet=fleet,
            failed=failed,
        )

    def test_perturbed_transient_fails(self) -> None:
        workload = scenarios.ThermalDtm(self.context())
        pinned = self.pins["transient"]["final_c"]
        checks = Checks()
        workload.check(5, self.thermal_outcome(dict(pinned)), checks)
        self.assertTrue(checks.correct)
        hotter = {node: value + 1e-3 for node, value in pinned.items()}
        workload = scenarios.ThermalDtm(self.context())
        checks = Checks()
        workload.check(5, self.thermal_outcome(hotter), checks)
        self.assert_reports_failure(checks)

    def test_flipped_byte_in_fleet_results_fails(self) -> None:
        workload = scenarios.ThermalDtm(self.context())
        outcome = self.thermal_outcome(None)
        outcome.data["fleet"] = flip_one_byte(outcome.data["fleet"])
        checks = Checks()
        workload.check(0, outcome, checks)
        self.assert_reports_failure(checks)


if __name__ == "__main__":
    unittest.main()
