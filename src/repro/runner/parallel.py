"""Run one experiment cell and package its outcome.

Each cell is an independent simulation with its own seeded RNG universe,
so a grid is embarrassingly parallel — the only contract is that the
*results* must be indistinguishable from a serial sweep.
:func:`execute_cell` is the unit both execution sites share: the cell
scheduler (:mod:`repro.service.scheduler`) calls it inline at ``jobs=1``
and inside each worker process otherwise.  It receives only the cell
description (experiment id + seed + bounds) plus the
:class:`~repro.core.config.RunProfile` that carries every run knob, and
re-instantiates the experiment from the registry, so no mutable state
travels between processes and a worker runs exactly what an inline run
would.

Determinism is enforced end-to-end by the serial-vs-parallel digest tests:
same cells through ``jobs=1`` and ``jobs=N`` must produce byte-identical
per-cell ``Trace.digest()`` values — with or without a fault schedule on
the profile.
"""

from __future__ import annotations

import time

from repro.core.config import RunProfile
from repro.experiments.registry import get_experiment
from repro.runner.cells import Cell, CellResult
from repro.topo.builder import capturing


def execute_cell(cell: Cell, collect_digest: bool,
                 profile: RunProfile) -> CellResult:
    """Run one cell in this process and package the outcome."""
    exp = get_experiment(cell.exp_id)
    started = time.perf_counter()  # repro-lint: allow=REPRO102 (wall-time report)
    with capturing(metrics=profile.metrics is not None) as runs:
        result = exp.run(
            seed=cell.seed,
            duration=cell.duration,
            warmup=cell.warmup,
            collect_digest=collect_digest,
            profile=profile,
        )
    wall = time.perf_counter() - started  # repro-lint: allow=REPRO102
    return CellResult(
        cell=cell.resolved(),
        result=result,
        digest=result.digest,
        wall_s=wall,
        failed_checks=[name for name, ok in result.checks.items() if not ok],
        metrics=[run.metrics for run in runs if run.metrics is not None],
    )
