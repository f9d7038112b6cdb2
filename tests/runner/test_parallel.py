"""Serial-vs-parallel equivalence: the runner's determinism contract.

A parallel sweep must be indistinguishable from a serial one — identical
tables, identical check verdicts and byte-identical per-cell trace
digests.  These tests run real (short) experiment cells through both
paths and diff everything observable.
"""

import pytest

from repro.core.config import RunProfile
from repro.runner import Cell, expand_cells
from repro.service import run_cells

#: Short bounds keep each cell ~1 s; equality, not accuracy, is under test.
BOUNDS = dict(duration=30.0, warmup=5.0)


def _snapshot(outcomes):
    return [
        (
            o.cell,
            o.digest,
            o.result.checks,
            o.result.table.render(),
            o.failed_checks,
        )
        for o in outcomes
    ]


def test_run_cells_parallel_matches_serial_exactly():
    cells = expand_cells(["table9"], [0, 1], **BOUNDS)
    serial = run_cells(cells, jobs=1, collect_digests=True)
    parallel = run_cells(cells, jobs=2, collect_digests=True)
    assert _snapshot(serial) == _snapshot(parallel)
    assert all(o.digest is not None for o in serial)


def test_run_cells_mixed_experiments_keep_input_order():
    cells = expand_cells(["table9", "table3"], [0], **BOUNDS)
    outcomes = run_cells(cells, jobs=2, collect_digests=True)
    assert [o.cell.exp_id for o in outcomes] == ["table9", "table3"]
    assert [o.cell for o in outcomes] == [c.resolved() for c in cells]


def test_digests_are_seed_sensitive():
    cells = expand_cells(["table9"], [0, 1], **BOUNDS)
    outcomes = run_cells(cells, jobs=2, collect_digests=True)
    assert outcomes[0].digest != outcomes[1].digest


def test_digests_stable_across_repeat_runs():
    cells = [Cell("table9", seed=0, **BOUNDS)]
    first = run_cells(cells, jobs=1, collect_digests=True)[0]
    second = run_cells(cells, jobs=1, collect_digests=True)[0]
    assert first.digest == second.digest


def test_without_digest_collection_digest_is_none():
    outcomes = run_cells([Cell("table9", seed=0, **BOUNDS)], jobs=1)
    assert outcomes[0].digest is None


def test_rejects_nonpositive_jobs():
    with pytest.raises(ValueError):
        run_cells([Cell("table9", seed=0, **BOUNDS)], jobs=0)


# ------------------------------------------------------------------ metrics


def test_metrics_interval_ships_series_back_with_each_cell():
    cells = expand_cells(["table9"], [0], duration=10.0, warmup=2.0)
    outcomes = run_cells(cells, jobs=1, profile=RunProfile(metrics=1.0))
    assert len(outcomes[0].metrics) >= 1  # one dump per scenario run
    dump = outcomes[0].metrics[0]
    assert dump["interval"] == 1.0
    names = {s["name"] for s in dump["series"]}
    assert "chan.busy_frac" in names and "mac.queue" in names


def test_metrics_default_off():
    cells = expand_cells(["table9"], [0], duration=10.0, warmup=2.0)
    outcomes = run_cells(cells, jobs=1)
    assert outcomes[0].metrics == []


def test_metrics_parallel_matches_serial_dumps_exactly():
    cells = expand_cells(["table9"], [0, 1], duration=10.0, warmup=2.0)
    metered = RunProfile(metrics=1.0)
    serial = run_cells(cells, jobs=1, profile=metered, collect_digests=True)
    parallel = run_cells(cells, jobs=2, profile=metered, collect_digests=True)
    assert [o.digest for o in serial] == [o.digest for o in parallel]
    assert [o.metrics for o in serial] == [o.metrics for o in parallel]


def test_metrics_do_not_change_digests():
    cells = expand_cells(["table9"], [0], duration=10.0, warmup=2.0)
    plain = run_cells(cells, jobs=1, collect_digests=True)
    metered = run_cells(cells, jobs=1, collect_digests=True,
                        profile=RunProfile(metrics=0.5))
    assert plain[0].digest == metered[0].digest


def test_metrics_runs_never_reuse_metricless_cache_entries(tmp_path):
    from repro.runner import ResultCache

    cells = expand_cells(["table9"], [0], duration=10.0, warmup=2.0)
    cache = ResultCache(str(tmp_path))
    run_cells(cells, jobs=1, cache=cache)  # warm the metric-less entry
    metered = RunProfile(metrics=1.0)
    outcomes = run_cells(cells, jobs=1, cache=cache, profile=metered)
    assert not outcomes[0].cached  # different config hash: forced re-run
    assert outcomes[0].metrics
    again = run_cells(cells, jobs=1, cache=cache, profile=metered)
    assert again[0].cached
    assert again[0].metrics == outcomes[0].metrics  # series ride the cache
