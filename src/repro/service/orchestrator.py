"""The sweep orchestrator: turn a JobSpec into a durable, resumable run.

One call to :func:`run_job` drives a whole campaign:

1. **Identify.**  The spec's profile carries every run knob and ships
   to every worker unchanged, so a job produces byte-identical results
   at any ``jobs``; its digest keys the job and its cache entries.
2. **Replay.**  An existing journal for the job is loaded and chain-
   verified; completed cells are *replayed* — their digests and metric
   values come from the journal, their full results from the
   :class:`~repro.runner.cache.ResultCache` (a cache miss silently
   re-executes, which by the determinism contract reproduces the
   journaled digest byte-for-byte).
3. **Schedule.**  Remaining cells fan out through the
   :class:`~repro.service.scheduler.CellScheduler` (per-cell worker
   processes, retry-with-backoff on worker death).  Every completion is
   journaled *immediately* — the journal line is the durability point.
4. **Allocate.**  When an experiment's allocated seeds are all complete,
   the :class:`~repro.service.policy.SeedPolicy` decides (on metric
   values in seed order — arrival order is irrelevant) whether to add
   seeds or close the configuration with a journaled ``stop`` record.
5. **Drain on SIGINT.**  The first ^C stops new dispatches, lets
   in-flight workers finish, journals them, appends an ``interrupted``
   record and returns a job in ``interrupted`` state; the CLI maps that
   to exit 130.  A second ^C terminates in-flight cells immediately.

Progress streams to ``<job>/progress.jsonl`` (one JSON line per event:
cell completions with wall-clock timing, retries, stops), mirroring the
:mod:`repro.obs` JSONL conventions for offline analysis.
"""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.runner.cache import ResultCache, code_version, profile_hash
from repro.runner.cells import Cell, CellResult
from repro.service.job import DEFAULT_JOB_DIR, Job, JobSpec
from repro.service.journal import JournalError
from repro.service.policy import cell_metric
from repro.service.scheduler import (
    DEFAULT_BACKOFF_S,
    DEFAULT_RETRIES,
    CellScheduler,
)

__all__ = ["run_job", "resume_job"]

PathLike = Union[str, Path]

#: ``on_event`` callback: (kind, payload) — the CLI renders these.
EventFn = Callable[[str, Dict[str, Any]], None]

CellKey = Tuple[str, int]


class _Progress:
    """Append-only progress/timing stream beside the journal."""

    def __init__(self, path: Path, on_event: Optional[EventFn]) -> None:
        self._path = path
        self._on_event = on_event
        path.parent.mkdir(parents=True, exist_ok=True)

    def emit(self, kind: str, **payload: Any) -> None:
        record = {"kind": kind, "t_wall": round(time.time(), 3), **payload}  # repro-lint: allow=REPRO102 (progress timestamps)
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        if self._on_event is not None:
            self._on_event(kind, record)


class _ConfigState:
    """Per-experiment allocation bookkeeping."""

    def __init__(self, exp_id: str, seeds: List[int]) -> None:
        self.exp_id = exp_id
        self.allocated: List[int] = list(seeds)
        self.done: Dict[int, CellResult] = {}
        self.metrics: Dict[int, float] = {}
        self.closed = False

    @property
    def complete(self) -> bool:
        return all(seed in self.done for seed in self.allocated)

    def metric_series(self) -> List[float]:
        """Metric values in seed-allocation order (the policy's input)."""
        return [self.metrics[seed] for seed in self.allocated]


def _cell(spec: JobSpec, exp_id: str, seed: int) -> Cell:
    return Cell(exp_id=exp_id, seed=seed, duration=spec.duration,
                warmup=spec.warmup).resolved()


def run_job(
    spec: JobSpec,
    jobs: int = 1,
    job_dir: PathLike = DEFAULT_JOB_DIR,
    cache: Optional[ResultCache] = None,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
    on_event: Optional[EventFn] = None,
    stop_after: Optional[int] = None,
) -> Job:
    """Run (or transparently resume) the sweep job ``spec`` describes.

    Parameters
    ----------
    spec:
        The job identity; its digest names the job directory, so calling
        ``run_job`` twice with an equal spec resumes rather than restarts.
    jobs:
        Worker processes (1 = inline).  Not part of the job identity.
    job_dir:
        Root under which ``<job_id>/journal.jsonl`` lives.
    cache:
        Result cache for replay and storage; defaults to the standard
        :class:`ResultCache` location.  The orchestrator *requires* a
        cache — it is how resumed jobs rematerialize full results.
    retries, backoff_s:
        Worker-death retry budget and backoff base (see
        :class:`~repro.service.scheduler.CellScheduler`).
    on_event:
        Optional live-progress callback ``(kind, payload)``.
    stop_after:
        Stop scheduling after this many *fresh* cell executions and
        return an interrupted job — deterministic interruption for tests
        and the CI resume smoke (equivalent to a perfectly timed ^C).

    Returns the completed (or interrupted) :class:`Job` with outcomes in
    deterministic order: spec experiment order, allocation order within.
    """
    # Built first: it validates jobs/retries/backoff, and a job that
    # could never run must not get a directory.
    scheduler = CellScheduler(
        profile=spec.profile, collect_digests=spec.collect_digests, jobs=jobs,
        retries=retries, backoff_s=backoff_s,
    )
    job = Job(spec=spec, directory=Path(job_dir) / spec.job_id)
    job.write_spec()
    if cache is None:
        cache = ResultCache()
    config = profile_hash(spec.profile, spec.collect_digests)
    journal = job.journal()
    progress = _Progress(job.progress_path, on_event)

    # ------------------------------------------------------------- replay
    records = journal.load()
    journaled: Dict[CellKey, Dict[str, Any]] = {}
    if records:
        head = records[0]
        if head.get("kind") != "job" or head.get("job_id") != spec.job_id:
            raise JournalError(
                f"{job.journal_path} belongs to job "
                f"{head.get('job_id')!r}, not {spec.job_id!r}"
            )
        if head.get("code") != code_version():
            raise JournalError(
                f"{job.journal_path} was written by a different source "
                "tree (code version mismatch); results would not be "
                "byte-comparable.  Start a fresh job or check out the "
                "original tree."
            )
        for record in records[1:]:
            if record.get("kind") == "cell":
                journaled[(record["exp"], int(record["seed"]))] = record
    else:
        journal.append({
            "kind": "job", "schema": 1, "job_id": spec.job_id,
            "spec": spec.to_dict(), "code": code_version(),
        })

    # ------------------------------------------------------------ schedule
    configs = {
        exp_id: _ConfigState(exp_id, spec.policy.initial_seeds())
        for exp_id in spec.experiments
    }

    interrupted = {"flag": False}

    def on_sigint(signum: int, frame: Any) -> None:
        if interrupted["flag"]:
            # Second ^C: stop waiting for in-flight cells.
            scheduler.close(terminate=True)
            raise KeyboardInterrupt
        interrupted["flag"] = True
        progress.emit("interrupt", drain=scheduler.in_flight)

    def record_done(state: _ConfigState, seed: int, outcome: CellResult,
                    attempts: int, from_cache: bool) -> None:
        metric = cell_metric(outcome.result.table, _metric_spec(spec))
        state.done[seed] = outcome
        state.metrics[seed] = metric
        if not from_cache:
            cache.put(outcome, config)
        if (state.exp_id, seed) in journaled:
            # The durable record already exists: replay, don't re-journal.
            # (A cache-evicted journaled cell re-executes above but lands
            # here too — byte-identical by the determinism contract.)
            job.replayed += 1
            return
        job.executed += 1
        journal.append({
            "kind": "cell", "exp": state.exp_id, "seed": seed,
            "duration": outcome.cell.duration, "warmup": outcome.cell.warmup,
            "digest": outcome.digest, "metric": metric,
            "wall_s": round(outcome.wall_s, 4), "attempts": attempts,
            "cached": outcome.cached,
            "failed_checks": list(outcome.failed_checks),
        })
        progress.emit(
            "cell", exp=state.exp_id, seed=seed,
            wall_s=round(outcome.wall_s, 4), attempts=attempts,
            done=job.executed + job.replayed,
        )

    def feed(state: _ConfigState) -> None:
        """Submit every allocated-but-unstarted cell of one experiment."""
        for seed in state.allocated:
            key = (state.exp_id, seed)
            if seed in state.done or key in submitted:
                continue
            submitted.add(key)
            cell = _cell(spec, state.exp_id, seed)
            hit = cache.get(cell, config)
            if hit is not None:
                entry = journaled.get(key)
                attempts = int(entry["attempts"]) if entry else 1
                record_done(state, seed, hit, attempts, from_cache=True)
                continue
            scheduler.submit(key, cell)

    def advance(state: _ConfigState) -> None:
        """Run the policy whenever an allocation round completes."""
        while state.complete and not state.closed:
            more = spec.policy.next_seeds(state.metric_series())
            if not more:
                state.closed = True
                series = state.metric_series()
                reason = spec.policy.stop_reason(series)
                half = getattr(spec.policy, "half_width", lambda _: None)(series)
                journal.append({
                    "kind": "stop", "exp": state.exp_id,
                    "n": len(state.allocated), "reason": reason,
                    "half_width": half if half != float("inf") else None,
                })
                progress.emit("stop", exp=state.exp_id,
                              n=len(state.allocated), reason=reason)
                return
            state.allocated.extend(more)
            feed(state)

    submitted: set = set()
    previous_handler = signal.signal(signal.SIGINT, on_sigint)
    try:
        for state in configs.values():
            feed(state)
        for state in configs.values():
            advance(state)

        budget_hit = False
        while any(not s.closed for s in configs.values()):
            if stop_after is not None and job.executed >= stop_after:
                budget_hit = True
            halting = interrupted["flag"] or budget_hit
            if halting and scheduler.in_flight == 0:
                break  # queued cells are abandoned; the journal has the rest
            reaped = scheduler.reap(accept_new=not halting)
            for item in reaped:
                exp_id, seed = item.key
                record_done(configs[exp_id], seed, item.result,
                            item.attempts, from_cache=False)
                advance(configs[exp_id])
    except BaseException:
        scheduler.close(terminate=True)
        raise
    finally:
        signal.signal(signal.SIGINT, previous_handler)
        job.retries = scheduler.worker_retries
        scheduler.close()

    # ------------------------------------------------------------- finish
    open_configs = [s for s in configs.values() if not s.closed]
    if open_configs:
        job.status = "interrupted"
        journal.append({
            "kind": "interrupted",
            "done": job.executed + job.replayed,
            "open": sorted(s.exp_id for s in open_configs),
        })
    else:
        job.status = "complete"
    for exp_id in spec.experiments:
        state = configs[exp_id]
        for seed in state.allocated:
            if seed in state.done:
                job.outcomes.append(state.done[seed])
        if state.closed:
            series = state.metric_series()
            half = getattr(spec.policy, "half_width", lambda _: None)(series)
            job.stops[exp_id] = {
                "n": len(state.allocated),
                "half_width": half if half != float("inf") else None,
                "reason": spec.policy.stop_reason(series),
            }
    if job.status == "complete":
        journal.append({
            "kind": "complete", "cells": len(job.outcomes),
            "digest_set": job.digest_set(),
        })
        progress.emit("complete", cells=len(job.outcomes),
                      digest_set=job.digest_set())
    return job


def _metric_spec(spec: JobSpec) -> str:
    """The stopping metric the spec's policy targets ("total" for fixed)."""
    return getattr(spec.policy, "metric", "total")


def resume_job(
    job: Job,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
    on_event: Optional[EventFn] = None,
    stop_after: Optional[int] = None,
) -> Job:
    """Continue a previously created job from its journal.

    Thin wrapper: :func:`run_job` with the job's own spec and directory
    root — replay is automatic.
    """
    return run_job(
        job.spec, jobs=jobs, job_dir=job.directory.parent, cache=cache,
        retries=retries, backoff_s=backoff_s, on_event=on_event,
        stop_after=stop_after,
    )
