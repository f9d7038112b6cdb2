"""Smoke test of the benchmark: every workload once, at a tiny size.

Run from the repository root with ``python -m pytest perfbench``.  Every
workload of workloads.py (BENCHMARK.json's three and ``office``) runs in
both modes with ``--tiny`` (4 s horizons, a 2-seed sweep); the test checks
that every metric BENCHMARK.json names is printed with its unit, on the
human-readable lines and in the final JSON line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_unit(workload: str, trace: str) -> None:
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"] for line in lines[:-1])
    if trace == "0":
        for metric in declared:
            assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


def test_fails_without_the_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "table2", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
