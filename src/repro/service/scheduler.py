"""Cell scheduling: the one way experiment cells reach worker processes.

:class:`CellScheduler` runs **one process per cell** (reusing
:func:`repro.runner.parallel.execute_cell`, so results are byte-identical
to an inline run), watches child exit codes, and re-dispatches a cell
whose worker died without reporting — with exponential backoff, up to a
retry cap — so an OOM kill or a node reaper cannot sink a whole grid.
An exception *inside* the cell (deterministic: it would fail every
retry) is not retried; it surfaces as :class:`CellFailure`, carrying the
child's traceback.

Two callers sit on it.  :func:`run_cells` runs a fixed grid and returns
results in input order; the sweep orchestrator
(:mod:`repro.service.orchestrator`) submits cells incrementally (the
adaptive seed policy extends a job mid-flight) and journals them by
identity.  Cells are reaped in completion order; every cell is an
independent seeded universe, so arrival order never affects results.

``jobs=1`` executes inline in the calling process: no subprocesses, no
retry machinery (there is no worker to die), identical results, and an
in-cell exception propagates unchanged.

:func:`run_in_worker` runs one arbitrary call through the same worker
body, for work that is not a cell (the differential oracle's jobs axis
on a generated scenario); it raises the same two errors and never
retries.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.config import RunProfile
from repro.runner.cache import ResultCache, profile_hash
from repro.runner.cells import Cell, CellResult
from repro.runner.parallel import execute_cell
from repro.topo.builder import import_build_modules

__all__ = [
    "ATTEMPT_ENV",
    "DEFAULT_BACKOFF_S",
    "DEFAULT_RETRIES",
    "CellFailure",
    "CellScheduler",
    "Reaped",
    "WorkerDeath",
    "run_cells",
    "run_in_worker",
    "worker_context",
]

#: Environment variable naming the dispatch attempt (1-based) inside a
#: worker process — observable by fault-injection tests that crash a
#: cell's first attempt only.
ATTEMPT_ENV = "REPRO_SERVICE_ATTEMPT"

#: Default worker-death retries per cell before the job fails.
DEFAULT_RETRIES = 2

#: Default backoff base: retry N waits backoff * 2**(N-1) wall seconds.
DEFAULT_BACKOFF_S = 0.5


def worker_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, inherits the imported tree), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class WorkerDeath(RuntimeError):
    """A cell's worker died on every allowed attempt."""


class CellFailure(RuntimeError):
    """A cell raised inside the experiment (deterministic; not retried)."""


def _child_main(conn: Any, attempt: int, work: Callable[..., Any],
                *args: Any) -> None:
    """Worker body: run ``work(*args)`` (one cell), ship the result, exit.

    SIGINT is ignored so a terminal ^C (delivered to the whole process
    group) interrupts only the *scheduler*, which then drains in-flight
    cells instead of losing them.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.environ[ATTEMPT_ENV] = str(attempt)
    try:
        result = work(*args)
    except BaseException as exc:  # deterministic failure: report, don't die
        import traceback

        conn.send(("error", f"{type(exc).__name__}: {exc}\n"
                   f"{traceback.format_exc()}"))
        conn.close()
        return
    conn.send(("ok", result))
    conn.close()


def run_in_worker(work: Callable[..., Any], *args: Any, label: str) -> Any:
    """``work(*args)`` in one worker process, through the cell body.

    For one-off runs that must cross the same process boundary as a
    scheduled cell.  Raises :class:`WorkerDeath` when the worker exits
    without a result (no retry) and :class:`CellFailure` when ``work``
    raises; ``label`` names the work in both messages.
    """
    ctx = worker_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_child_main,
                          args=(child_conn, 1, work, *args), daemon=True)
    process.start()
    child_conn.close()
    try:
        kind, value = parent_conn.recv()
    except EOFError:
        kind, value = "died", None
    except BaseException:
        process.terminate()
        raise
    finally:
        parent_conn.close()
        process.join()
    if kind == "died":
        raise WorkerDeath(f"worker for {label} died (exit code "
                          f"{process.exitcode}) without a result")
    if kind == "error":
        raise CellFailure(f"{label} failed deterministically:\n{value}")
    return value


@dataclass
class _InFlight:
    key: Any
    cell: Cell
    attempt: int
    process: Any
    conn: Any
    payload: Optional[Tuple[str, Any]] = None


@dataclass
class _Queued:
    key: Any
    cell: Cell
    attempt: int
    #: Earliest wall time this dispatch may happen (retry backoff).
    not_before: float = 0.0


@dataclass
class Reaped:
    """One completed cell handed back to the caller."""

    key: Any
    result: CellResult
    attempts: int


@dataclass
class CellScheduler:
    """Dispatch cells to (at most ``jobs``) workers; reap as they finish.

    ``profile`` ships to every worker as is: it carries every run knob,
    so a worker runs exactly what an inline run would.
    """

    profile: RunProfile
    collect_digests: bool = True
    jobs: int = 1
    retries: int = DEFAULT_RETRIES
    backoff_s: float = DEFAULT_BACKOFF_S

    _queue: List[_Queued] = field(default_factory=list)
    _running: List[_InFlight] = field(default_factory=list)
    _retried: int = 0

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs!r}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries!r}")
        if not (math.isfinite(self.backoff_s) and self.backoff_s >= 0):
            # A NaN retry slot is never due: the cell would never run again.
            raise ValueError(f"backoff must be a finite number of seconds "
                             f">= 0, got {self.backoff_s!r}")
        if self.jobs > 1:
            # Workers fork from this process: import here, once, what
            # every cell's build would otherwise import in its worker.
            import_build_modules(self.profile)
        self._ctx = worker_context() if self.jobs > 1 else None

    # ------------------------------------------------------------- submit
    def submit(self, key: Any, cell: Cell) -> None:
        """Enqueue one cell; dispatch happens inside :meth:`reap`."""
        self._queue.append(_Queued(key=key, cell=cell, attempt=1))

    @property
    def outstanding(self) -> int:
        """Cells submitted but not yet reaped."""
        return len(self._queue) + len(self._running)

    @property
    def in_flight(self) -> int:
        """Cells currently running in a worker (the drain set: queued
        cells are never dispatched once draining starts)."""
        return len(self._running)

    @property
    def worker_retries(self) -> int:
        """Worker-death retries performed so far."""
        return self._retried

    # --------------------------------------------------------------- reap
    def reap(self, accept_new: bool = True,
             timeout: float = 0.2) -> List[Reaped]:
        """Dispatch what fits, wait briefly, return finished cells.

        ``accept_new=False`` stops dispatching queued cells (the SIGINT
        drain: in-flight workers finish, the queue stays put).  Returns
        completed cells in completion order; empty when nothing finished
        within ``timeout``.
        """
        if self.jobs == 1:
            return self._reap_inline(accept_new)
        self._dispatch(accept_new)
        if not self._running:
            if self._queue and accept_new:
                # Everything queued is backing off: wait the shorter of
                # the poll timeout and the earliest retry slot.
                now = time.monotonic()  # repro-lint: allow=REPRO102 (retry backoff is wall time)
                earliest = min(task.not_before for task in self._queue)
                time.sleep(min(timeout, max(0.0, earliest - now)))
            return []
        conns = [flight.conn for flight in self._running]
        multiprocessing.connection.wait(conns, timeout)
        done: List[Reaped] = []
        still: List[_InFlight] = []
        for flight in self._running:
            outcome = self._collect(flight)
            if outcome is None:
                still.append(flight)
            elif outcome:
                done.extend(outcome)
        self._running = still
        return done

    def _reap_inline(self, accept_new: bool) -> List[Reaped]:
        """jobs=1: run the next queued cell in this process."""
        if not accept_new or not self._queue:
            return []
        task = self._queue.pop(0)
        os.environ[ATTEMPT_ENV] = str(task.attempt)
        try:
            result = execute_cell(task.cell, self.collect_digests, self.profile)
        finally:
            os.environ.pop(ATTEMPT_ENV, None)
        return [Reaped(key=task.key, result=result, attempts=task.attempt)]

    def _dispatch(self, accept_new: bool) -> None:
        if not accept_new:
            return
        now = time.monotonic()  # repro-lint: allow=REPRO102 (retry backoff is wall time)
        ready = [t for t in self._queue if t.not_before <= now]
        while ready and len(self._running) < self.jobs:
            task = ready.pop(0)
            self._queue.remove(task)
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_child_main,
                args=(child_conn, task.attempt, execute_cell, task.cell,
                      self.collect_digests, self.profile),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._running.append(_InFlight(
                key=task.key, cell=task.cell, attempt=task.attempt,
                process=process, conn=parent_conn,
            ))

    def _collect(self, flight: _InFlight) -> Optional[List[Reaped]]:
        """Outcome of one in-flight worker: None = still running,
        [] = retried after death, [Reaped] = done."""
        if flight.payload is None and flight.conn.poll():
            try:
                flight.payload = flight.conn.recv()
            except (EOFError, OSError):
                flight.payload = None  # died mid-send: treat as death below
        if flight.payload is not None:
            kind, value = flight.payload
            flight.process.join()
            flight.conn.close()
            if kind == "error":
                raise CellFailure(
                    f"cell ({flight.cell.exp_id}, seed {flight.cell.seed}) "
                    f"failed deterministically:\n{value}"
                )
            return [Reaped(key=flight.key, result=value,
                           attempts=flight.attempt)]
        if flight.process.is_alive():
            return None
        # Dead without a result: worker death.  Retry with backoff.
        flight.process.join()
        flight.conn.close()
        if flight.attempt > self.retries:
            raise WorkerDeath(
                f"worker for cell ({flight.cell.exp_id}, seed "
                f"{flight.cell.seed}) died (exit code "
                f"{flight.process.exitcode}) on attempt {flight.attempt}; "
                f"retry budget ({self.retries}) exhausted"
            )
        delay = self.backoff_s * (2 ** (flight.attempt - 1))
        self._retried += 1
        self._queue.append(_Queued(
            key=flight.key, cell=flight.cell, attempt=flight.attempt + 1,
            not_before=time.monotonic() + delay,  # repro-lint: allow=REPRO102 (retry backoff is wall time)
        ))
        return []

    # -------------------------------------------------------------- close
    def close(self, terminate: bool = False) -> None:
        """Release workers.  ``terminate=True`` kills in-flight cells."""
        for flight in self._running:
            if terminate:
                flight.process.terminate()
            flight.process.join()
            flight.conn.close()
        self._running = []
        self._queue = []


def run_cells(
    cells: Sequence[Cell],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    collect_digests: bool = False,
    profile: Optional[RunProfile] = None,
) -> List[CellResult]:
    """Run every cell and return results in input order.

    Parameters
    ----------
    cells:
        The (experiment, seed) grid to run; see
        :func:`repro.runner.cells.expand_cells`.
    jobs:
        Worker processes.  1 runs serially in-process; N > 1 runs each
        cell in its own worker, at most N at a time, retrying a worker
        that dies (:class:`WorkerDeath` once the retry budget is spent)
        and raising :class:`CellFailure` for an exception inside a cell.
    cache:
        Optional :class:`ResultCache`; hits skip the run entirely, misses
        are stored as they complete.  The cache key folds in the
        profile digest, digest collection and the source-tree content
        hash.
    collect_digests:
        Capture per-cell combined trace digests (forces tracing on inside
        the runs — the equivalence contract between serial and parallel).
    profile:
        The :class:`~repro.core.config.RunProfile` every cell runs under
        (sanitizer, metrics, faults, timing, …).  None adopts
        the ambient profile (:func:`~repro.core.config.active_profile`)
        or defaults.
    """
    if profile is None:
        profile = RunProfile.current()
    scheduler = CellScheduler(profile=profile, collect_digests=collect_digests,
                              jobs=jobs)
    config = profile_hash(profile, collect_digests)

    results: List[Optional[CellResult]] = []
    for index, cell in enumerate(cell.resolved() for cell in cells):
        hit = cache.get(cell, config) if cache is not None else None
        results.append(hit)
        if hit is None:
            scheduler.submit(index, cell)

    # Results are stored (and cached) as they *complete*, not after the
    # whole grid finishes: a KeyboardInterrupt mid-grid leaves every
    # finished cell flushed to the cache, so the re-run after a ^C is
    # pure hits up to the interruption point.  The submit key is the
    # grid index, so output order — and hence serial/parallel
    # byte-equality — does not depend on completion order.
    try:
        while scheduler.outstanding:
            for done in scheduler.reap():
                results[done.key] = done.result
                if cache is not None:
                    cache.put(done.result, config)
    finally:
        # Nothing is in flight after a normal finish; after ^C or a
        # failed cell the remaining workers are killed, not leaked.
        scheduler.close(terminate=True)
    return [result for result in results if result is not None]
