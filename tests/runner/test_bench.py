"""Bench baseline logic (no timed benches — those live in benchmarks/)."""

import json

from repro.runner.bench import (
    DEFAULT_TOLERANCE,
    check_against,
    default_baseline_path,
    load_baseline,
    write_baseline,
)


def _results(events_per_sec):
    return {
        "six_pad_cell": {
            "events": 85757, "wall_s": 1.5, "events_per_sec": events_per_sec,
        }
    }


def _baseline(events_per_sec, tolerance=0.25):
    return {"tolerance": tolerance,
            "backends": {"heap": _results(events_per_sec)}}


def test_within_tolerance_passes():
    assert check_against(_baseline(50_000.0), _results(40_000.0), "heap") == []


def test_beyond_tolerance_fails():
    failures = check_against(_baseline(50_000.0), _results(37_000.0), "heap")
    assert len(failures) == 1 and "six_pad_cell" in failures[0]


def test_unknown_bench_is_ignored():
    baseline = {"tolerance": 0.25, "backends": {"heap": {}}}
    assert check_against(baseline, _results(1.0), "heap") == []


def test_write_preserves_frozen_pre_pr_block(tmp_path):
    path = tmp_path / "BENCH_engine.json"
    path.write_text(json.dumps({"pre_pr": {"six_pad_cell": {"wall_s": 2.0}}}))
    write_baseline(path, {"heap": _results(55_000.0)})
    data = load_baseline(path)
    assert data["pre_pr"] == {"six_pad_cell": {"wall_s": 2.0}}
    assert data["backends"] == {"heap": _results(55_000.0)}
    assert data["tolerance"] == DEFAULT_TOLERANCE


def test_write_records_the_backend_matrix(tmp_path):
    path = tmp_path / "BENCH_engine.json"
    matrix = {"heap": _results(55_000.0), "wheel": _results(60_000.0)}
    write_baseline(path, matrix)
    data = load_baseline(path)
    assert data["backends"] == matrix
    assert "benchmarks" not in data


def test_check_uses_the_backends_own_section():
    baseline = {
        "tolerance": 0.25,
        "backends": {
            "heap": _results(50_000.0),
            "wheel": _results(100_000.0),
        },
    }
    # 60k events/sec clears the heap section but regresses the wheel's.
    assert check_against(baseline, _results(60_000.0), backend="heap") == []
    failures = check_against(baseline, _results(60_000.0), backend="wheel")
    assert len(failures) == 1 and "[wheel]" in failures[0]
    # A backend with no committed section has nothing to regress against.
    assert check_against(baseline, _results(60_000.0), backend="novel") == []


def test_committed_baseline_exists_and_documents_the_speedup():
    data = load_baseline(default_baseline_path())
    assert set(data["backends"]["heap"]) >= {
        "kernel_chain", "timer_cancel", "single_stream_cell",
        "six_pad_cell", "office_cell",
    }
    # The acceptance claim of the first perf PR: the contended six-pad
    # cell runs >= 20% faster than the frozen pre-optimization reference.
    before = data["pre_pr"]["six_pad_cell"]["wall_s"]
    after = data["backends"]["heap"]["six_pad_cell"]["wall_s"]
    assert after <= 0.8 * before


def test_committed_baseline_documents_the_wheel_win():
    data = load_baseline(default_baseline_path())
    backends = data["backends"]
    assert set(backends) >= {"heap", "wheel"}
    # The acceptance claim of the queue-backend PR: on the cancel-heavy
    # timer bench the wheel clears the heap by >= 25% events/sec...
    heap = backends["heap"]["timer_cancel"]["events_per_sec"]
    wheel = backends["wheel"]["timer_cancel"]["events_per_sec"]
    assert wheel >= 1.25 * heap
    # ...without giving the small contended cell back: six-pad on the
    # wheel stays within the regression gate of the committed heap
    # baseline (the section --check holds every backend to).
    six_heap = backends["heap"]["six_pad_cell"]["events_per_sec"]
    six_wheel = backends["wheel"]["six_pad_cell"]["events_per_sec"]
    assert six_wheel >= (1.0 - data["tolerance"]) * six_heap
