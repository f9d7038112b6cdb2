"""Fan experiment cells out over worker processes.

Each cell is an independent simulation with its own seeded RNG universe,
so the sweep is embarrassingly parallel — the only contract is that the
*results* must be indistinguishable from a serial sweep.  Three design
points keep that true:

* workers receive only the cell description (experiment id + seed +
  bounds) plus one pinned :class:`~repro.core.config.RunProfile`, and
  re-instantiate the experiment from the registry, so no mutable state
  travels between processes;
* output order is input order regardless of worker scheduling (each
  result carries its grid index; completion order only affects when a
  result is flushed to the cache);
* ambient switches (sanitize blocks, metrics collection, the active
  profile) are resolved in the parent and *pinned into the profile*
  before it ships, so a ``with sanitized():`` or ``active_profile(...)``
  block in the parent applies identically in every worker.

Determinism is enforced end-to-end by the serial-vs-parallel digest tests:
same cells through ``jobs=1`` and ``jobs=N`` must produce byte-identical
per-cell ``Trace.digest()`` values — with or without a fault schedule on
the profile.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import List, Optional, Sequence, Tuple

from repro.core.config import RunProfile, WarmStart
from repro.experiments.registry import get_experiment
from repro.obs.runtime import collecting, resolve_metrics
from repro.runner.cache import ResultCache, profile_hash
from repro.runner.cells import Cell, CellResult
from repro.verify.runtime import sanitize_enabled, sanitized

_WorkerPayload = Tuple[int, Cell, bool, RunProfile]


def _preferred_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, inherits the imported tree), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def execute_cell(cell: Cell, collect_digest: bool,
                 profile: RunProfile) -> CellResult:
    """Run one cell in this process and package the outcome.

    ``profile`` arrives pinned (sanitize and metrics resolved to concrete
    values in the parent), so this function behaves identically whether
    it runs inline or inside a pool worker.
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


def _worker(payload: _WorkerPayload) -> Tuple[int, CellResult]:
    index, cell, collect_digest, profile = payload
    return index, execute_cell(cell, collect_digest, profile)


def run_cells(
    cells: Sequence[Cell],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    collect_digests: bool = False,
    profile: Optional[RunProfile] = None,
    warm_start: Optional[WarmStart] = None,
) -> List[CellResult]:
    """Run every cell and return results in input order.

    Parameters
    ----------
    cells:
        The (experiment, seed) grid to run; see
        :func:`repro.runner.cells.expand_cells`.
    jobs:
        Worker processes.  1 runs serially in-process (no multiprocessing
        import side effects); N > 1 uses a process pool of at most
        ``min(jobs, pending cells)`` workers.
    cache:
        Optional :class:`ResultCache`; hits skip the run entirely, misses
        are stored after running.  The cache key folds in the pinned
        profile digest, digest collection and the source-tree content
        hash.
    collect_digests:
        Capture per-cell combined trace digests (forces tracing on inside
        the runs — the equivalence contract between serial and parallel).
    profile:
        The :class:`~repro.core.config.RunProfile` every cell runs under
        (sanitizer, metrics, faults, timing, …).  None adopts the ambient
        profile (:func:`~repro.core.config.active_profile`) or defaults.
        Ambient switches are pinned into the profile in the parent, so
        serial and parallel execution see identical configuration.
    warm_start:
        Optional :class:`~repro.core.config.WarmStart`: every cell's
        scenarios fast-forward to ``warm_start.at`` through the keyed
        snapshot store instead of simulating the warm-up from t=0.  The
        first cell needing a given (builder, profile, code) key warms
        the store; the rest restore.  Folds into the profile — and hence
        into the cache key — so warm results never collide with cold
        ones.  Results are byte-identical to cold runs by the snapshot
        subsystem's restore invariant.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    if profile is None:
        profile = RunProfile.current()
    if warm_start is not None:
        profile = profile.but(warm_start=warm_start)
    # Pin ambient resolution in the parent: workers must not re-consult
    # environment blocks they never entered.
    pinned = profile.but(
        sanitize=sanitize_enabled(profile.sanitize),
        metrics=resolve_metrics(profile.metrics) or False,
    )
    config = profile_hash(pinned, collect_digests)

    resolved = [cell.resolved() for cell in cells]
    results: List[Optional[CellResult]] = [None] * len(resolved)

    pending: List[Tuple[int, Cell]] = []
    for index, cell in enumerate(resolved):
        hit = cache.get(cell, config) if cache is not None else None
        if hit is not None:
            results[index] = hit
        else:
            pending.append((index, cell))

    if pending:
        # Results are stored (and cached) as they *complete*, not after
        # the whole grid finishes: a KeyboardInterrupt mid-sweep leaves
        # every finished cell flushed to the cache, so the re-run after
        # a ^C is pure hits up to the interruption point.  Output order
        # is restored from the carried index, so ordering — and hence
        # serial/parallel byte-equality — is unchanged.
        payloads = [
            (index, cell, collect_digests, pinned) for index, cell in pending
        ]
        def store(index: int, outcome: CellResult) -> None:
            results[index] = outcome
            if cache is not None:
                cache.put(outcome, config)
        if jobs == 1 or len(pending) == 1:
            for payload in payloads:
                store(*_worker(payload))
        else:
            ctx = _preferred_context()
            # Pool.__exit__ terminates workers, interrupted or not — a
            # ^C propagates out of the iteration without leaking the pool.
            with ctx.Pool(processes=min(jobs, len(pending))) as pool:
                for index, outcome in pool.imap_unordered(
                        _worker, payloads, chunksize=1):
                    store(index, outcome)

    return [result for result in results if result is not None]
