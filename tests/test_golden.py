"""Golden behaviour pins: simulated results must not move between commits.

``benchmarks/GOLDEN.json`` pins, for every registered experiment at
seeds 1 and 2, the combined trace digest of every scenario the experiment
simulated and its table cells rounded to 6 decimals.  The differential
oracle proves that execution modes agree within one build; these pins
catch a change that moves behaviour identically in every mode.

Tier-1 recomputes a fast subset.  The full set runs from the command
line and exits 1 on any drift::

    PYTHONPATH=src python -m tests.test_golden

Rewriting the pins is deliberate: do it only when behaviour is meant to
change, and say why in CHANGES.md::

    PYTHONPATH=src python -m tests.test_golden --write
"""

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.experiments.registry import experiment_ids, get_experiment

GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks" / "GOLDEN.json"
SEEDS = (1, 2)
DURATION = 10.0
WARMUP = 2.0
#: Table 8 measures from t = 120 s whatever the horizon, so it runs at
#: the shortest whole-second horizon that leaves it a measurement window.
HORIZONS = {"table8": 121.0}
#: What tier-1 recomputes, at seed 1 (about 5 s).
FAST_SUBSET = ("table2", "table11", "fig1", "ablation-polling")


def compute_pin(exp_id: str, seed: int) -> Dict[str, Any]:
    """One experiment's digest and rounded table cells at one seed."""
    result = get_experiment(exp_id).run(
        seed=seed, duration=HORIZONS.get(exp_id, DURATION), warmup=WARMUP,
        collect_digest=True,
    )
    cells = {
        variant: {stream: round(value, 6) for stream, value in row.items()}
        for variant, row in result.table.measured.items()
    }
    return {"digest": result.digest, "cells": cells}


def load_golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_experiment_and_seed():
    golden = load_golden()
    assert (golden["duration"], golden["warmup"], golden["horizons"]) == (
        DURATION, WARMUP, HORIZONS
    )
    assert sorted(golden["pins"]) == sorted(experiment_ids())
    for pins in golden["pins"].values():
        assert sorted(pins) == [str(seed) for seed in SEEDS]


@pytest.mark.parametrize("exp_id", FAST_SUBSET)
def test_fast_subset_matches_golden(exp_id):
    assert compute_pin(exp_id, 1) == load_golden()["pins"][exp_id]["1"]


def main(argv: List[str]) -> int:
    if argv not in ([], ["--write"]):
        print("usage: python -m tests.test_golden [--write]", file=sys.stderr)
        return 2
    pins = {
        exp_id: {str(seed): compute_pin(exp_id, seed) for seed in SEEDS}
        for exp_id in experiment_ids()
    }
    if argv:
        document = {"duration": DURATION, "warmup": WARMUP,
                    "horizons": HORIZONS, "pins": pins}
        GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"wrote {len(pins)} experiments x {len(SEEDS)} seeds to {GOLDEN}")
        return 0
    golden = load_golden()["pins"]
    drifted = [
        f"{exp_id}@{seed}"
        for exp_id, by_seed in pins.items()
        for seed, pin in by_seed.items()
        if golden.get(exp_id, {}).get(seed) != pin
    ]
    for name in drifted:
        print(f"drifted from {GOLDEN.name}: {name}")
    print(f"{len(drifted)} of {len(pins) * len(SEEDS)} pins drifted")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
