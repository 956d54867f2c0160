"""Regenerate ``pins.json``: the outputs the benchmark checks against.

Usage (from the repository root)::

    python3 perfbench/pin.py

Pins are the program's outputs for the benchmark's fixed inputs: a
SHA-256 of the canonical replay results and fleet results, of the DTM
replay's simulated summary, the DTM run's hottest air temperature, and
the Figure-1 transient's final node temperatures.  Seeds 0-31 are pinned
for tuning; ``held_out_seed`` is pinned too but reserved for confirming
a performance claim on a seed that was not used while writing it.
Regenerate only when a change is meant to alter simulated output.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from checks import canonical_bytes, sha256  # noqa: E402
from scenarios import (  # noqa: E402
    TRANSIENT_TOL_C,
    dtm_summary,
    fleet_bytes,
    replay_bytes,
    transient_final,
)

TUNING_SEEDS = list(range(32))
HELD_OUT_SEED = 7919


def main() -> int:
    pins = {
        "held_out_seed": HELD_OUT_SEED,
        "tuning_seed_range": [TUNING_SEEDS[0], TUNING_SEEDS[-1]],
        "replay": {},
        "dtm": {},
        "dtm_max_air_c": {},
        "fleet": {},
    }
    for seed in TUNING_SEEDS + [HELD_OUT_SEED]:
        data, _ = replay_bytes(seed)
        pins["replay"][str(seed)] = sha256(data)
        summary, max_air_c = dtm_summary(seed)
        pins["dtm"][str(seed)] = sha256(canonical_bytes(summary))
        pins["dtm_max_air_c"][str(seed)] = max_air_c
        data, _, _ = fleet_bytes(seed)
        pins["fleet"][str(seed)] = sha256(data)
        print(f"pinned seed {seed}", file=sys.stderr)
    final, _ = transient_final()
    pins["transient"] = {"final_c": final, "tolerance_c": TRANSIENT_TOL_C}
    with open(os.path.join(BENCH_DIR, "pins.json"), "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
