"""``run_cells`` over the cell scheduler: the one worker model for grids.

At ``jobs > 1`` every cell runs in its own worker process, so the grid
inherits the scheduler's failure handling: a dead worker is retried and
then reported as :class:`WorkerDeath` instead of hanging the caller, and
an exception inside a cell surfaces as :class:`CellFailure` with the
child's traceback.  ``jobs=1`` stays inline and lets the original
exception through.
"""

import multiprocessing
import os

import pytest

from repro.runner import ResultCache, expand_cells
from repro.service import CellFailure, WorkerDeath, run_cells


def test_crash_once_is_retried_and_returns_results(fake_experiments):
    cells = expand_cells(["svc-crash-once"], [0, 1])
    outcomes = run_cells(cells, jobs=2, collect_digests=True)
    assert [o.cell for o in outcomes] == [c.resolved() for c in cells]
    # The retried workers ran the same scenario as the plain fake.
    plain = run_cells(expand_cells(["svc-fast"], [0, 1]), jobs=1,
                      collect_digests=True)
    assert [o.digest for o in outcomes] == [o.digest for o in plain]


def test_crash_always_raises_worker_death(fake_experiments, deadline):
    cells = expand_cells(["svc-crash-always"], [0, 1])
    with pytest.raises(WorkerDeath, match="retry budget"):
        run_cells(cells, jobs=2)
    assert multiprocessing.active_children() == []


def test_in_cell_exception_is_a_cell_failure_only_in_workers(fake_experiments):
    cells = expand_cells(["svc-raise"], [0, 1])
    with pytest.raises(CellFailure, match="deliberate in-cell failure") as info:
        run_cells(cells, jobs=2)
    assert "Traceback" in str(info.value)  # the child's traceback rides along
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError, match="deliberate in-cell failure"):
        run_cells(cells, jobs=1)


def test_one_cell_grid_runs_in_a_worker_at_jobs_2(fake_experiments):
    cells = expand_cells(["svc-pid"], [0])
    (inline,) = run_cells(cells, jobs=1)
    (worker,) = run_cells(cells, jobs=2)
    assert inline.result.table.value("pid", "pid") == os.getpid()
    assert worker.result.table.value("pid", "pid") != os.getpid()


def test_completed_cells_are_cached_before_a_later_failure(
    fake_experiments, tmp_path
):
    cache = ResultCache(str(tmp_path))
    cells = expand_cells(["svc-fast", "svc-raise"], [0])
    with pytest.raises(ValueError):
        run_cells(cells, jobs=1, cache=cache)
    (again,) = run_cells(cells[:1], jobs=1, cache=cache)
    assert again.cached
