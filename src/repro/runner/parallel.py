"""Run one experiment cell and package its outcome.

Each cell is an independent simulation with its own seeded RNG universe,
so a grid is embarrassingly parallel — the only contract is that the
*results* must be indistinguishable from a serial sweep.
:func:`execute_cell` is the unit both execution sites share: the cell
scheduler (:mod:`repro.service.scheduler`) calls it inline at ``jobs=1``
and inside each worker process otherwise.  Two design points keep the
results identical wherever it runs:

* it receives only the cell description (experiment id + seed + bounds)
  plus one pinned :class:`~repro.core.config.RunProfile`, and
  re-instantiates the experiment from the registry, so no mutable state
  travels between processes;
* ambient switches (sanitize blocks, metrics collection, the active
  profile) arrive already resolved into that profile, so a
  ``with sanitized():`` or ``active_profile(...)`` block in the parent
  applies identically in every worker.

Determinism is enforced end-to-end by the serial-vs-parallel digest tests:
same cells through ``jobs=1`` and ``jobs=N`` must produce byte-identical
per-cell ``Trace.digest()`` values — with or without a fault schedule on
the profile.
"""

from __future__ import annotations

import time
from typing import List

from repro.core.config import RunProfile
from repro.experiments.registry import get_experiment
from repro.obs.runtime import collecting
from repro.runner.cells import Cell, CellResult
from repro.verify.runtime import sanitized


def execute_cell(cell: Cell, collect_digest: bool,
                 profile: RunProfile) -> CellResult:
    """Run one cell in this process and package the outcome.

    ``profile`` arrives pinned (sanitize and metrics resolved to concrete
    values in the parent), so this function behaves identically whether
    it runs inline or inside a worker process.
    """
    metrics: List[dict] = []
    with sanitized(bool(profile.sanitize)):
        exp = get_experiment(cell.exp_id)
        started = time.perf_counter()  # repro-lint: allow=REPRO102 (wall-time report)
        if profile.metrics:
            with collecting(profile.metrics) as metrics:
                result = exp.run(
                    seed=cell.seed,
                    duration=cell.duration,
                    warmup=cell.warmup,
                    collect_digest=collect_digest,
                    profile=profile,
                )
        else:
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
        metrics=metrics,
    )
