"""The consolidated public API: one import for scenarios, runs and sweeps.

Everything a user script needs lives here, curated::

    from repro.api import ScenarioBuilder, RunProfile, run, sweep

    # One experiment, one seed:
    result = run("table2", seed=1)
    print(result.render())

    # A durable, resumable multi-seed campaign:
    job = sweep(["table2", "table9"], seeds=[0, 1, 2], jobs=4)
    print(job.status, job.digest_set())

    # Sequential stopping: add seeds until the CI is tight enough.
    job = sweep("table2", policy=AdaptiveSeeds(epsilon=5.0))

The facade is a *stable* surface over the layered internals: scenario
construction (:class:`ScenarioBuilder`, :class:`Scenario`, the canned
paper topologies in :mod:`figures <repro.topo.figures>`), configuration
(:class:`RunProfile` and the protocol config constructors), the
experiment registry (:func:`load_experiment`, :func:`run`), the sweep
service (:func:`sweep`, :class:`Job`, the seed policies) and the
analysis helpers the examples plot with.  Deeper imports
(``repro.topo.builder``, ``repro.runner`` …) keep working, but new code
should start here.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - the names resolve lazily below
    from repro.analysis import (
        ComparisonTable,
        channel_utilization,
        format_table,
        jain_fairness,
        throughput_timeseries,
    )
    from repro.core import MacawMac, ProtocolConfig
    from repro.core.config import (
        RunProfile,
        active_profile,
        maca_config,
        macaw_config,
    )
    from repro.experiments.base import Experiment, ExperimentResult
    from repro.experiments.registry import experiment_ids
    from repro.fault import FaultSchedule
    from repro.mac import CsmaConfig, MacTiming
    from repro.runner import Cell, CellResult, ResultCache, expand_cells
    from repro.service.job import Job, JobSpec
    from repro.service.policy import AdaptiveSeeds, FixedSeeds, SeedPolicy
    from repro.service.scheduler import run_cells
    from repro.topo import Scenario, ScenarioBuilder, Station
    from repro.topo import figures

__all__ = [
    "AdaptiveSeeds",
    "Cell",
    "CellResult",
    "ComparisonTable",
    "CsmaConfig",
    "Experiment",
    "ExperimentResult",
    "FaultSchedule",
    "FixedSeeds",
    "Job",
    "JobSpec",
    "MacTiming",
    "MacawMac",
    "ProtocolConfig",
    "ResultCache",
    "RunProfile",
    "Scenario",
    "ScenarioBuilder",
    "SeedPolicy",
    "Station",
    "active_profile",
    "channel_utilization",
    "expand_cells",
    "experiment_ids",
    "figures",
    "format_table",
    "jain_fairness",
    "load_experiment",
    "maca_config",
    "macaw_config",
    "run",
    "run_cells",
    "sweep",
    "throughput_timeseries",
]


#: Public name -> its defining module, imported on first access (PEP 562):
#: a run loads the stack it simulates, not the sweep service.
_EXPORTS = {
    "AdaptiveSeeds": "repro.service.policy",
    "Cell": "repro.runner.cells",
    "CellResult": "repro.runner.cells",
    "ComparisonTable": "repro.analysis.tables",
    "CsmaConfig": "repro.mac.csma",
    "Experiment": "repro.experiments.base",
    "ExperimentResult": "repro.experiments.base",
    "FaultSchedule": "repro.fault.schedule",
    "FixedSeeds": "repro.service.policy",
    "Job": "repro.service.job",
    "JobSpec": "repro.service.job",
    "MacTiming": "repro.mac.timing",
    "MacawMac": "repro.core.macaw",
    "ProtocolConfig": "repro.core.config",
    "ResultCache": "repro.runner.cache",
    "RunProfile": "repro.core.config",
    "Scenario": "repro.topo.builder",
    "ScenarioBuilder": "repro.topo.builder",
    "SeedPolicy": "repro.service.policy",
    "Station": "repro.topo.station",
    "active_profile": "repro.core.config",
    "channel_utilization": "repro.analysis.metrics",
    "expand_cells": "repro.runner.cells",
    "experiment_ids": "repro.experiments.registry",
    "format_table": "repro.analysis.tables",
    "jain_fairness": "repro.analysis.metrics",
    "maca_config": "repro.core.config",
    "macaw_config": "repro.core.config",
    "run_cells": "repro.service.scheduler",
    "throughput_timeseries": "repro.analysis.metrics",
}


def __getattr__(name: str) -> Any:
    if name == "figures":
        return import_module("repro.topo.figures")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name]), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))


def load_experiment(experiment: Union[str, Experiment]) -> Experiment:
    """The registered experiment driver for an id (``"table2"``, …).

    Passing an :class:`Experiment` instance returns it unchanged, so
    call sites can accept either form.
    """
    from repro.experiments.base import Experiment
    from repro.experiments.registry import get_experiment

    if isinstance(experiment, Experiment):
        return experiment
    return get_experiment(experiment)


def run(
    experiment: Union[str, Experiment],
    seed: int = 0,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    profile: Optional[RunProfile] = None,
    collect_digest: bool = False,
) -> ExperimentResult:
    """Run one experiment once and return its :class:`ExperimentResult`.

    The inline single-cell spelling: durations default to the driver's
    laptop-friendly bounds, ``profile`` defaults to the ambient
    :func:`active_profile`.  For multi-seed or multi-experiment
    campaigns — with caching, resume and parallelism — use
    :func:`sweep`.
    """
    return load_experiment(experiment).run(
        seed=seed, duration=duration, warmup=warmup,
        collect_digest=collect_digest, profile=profile,
    )


def sweep(
    experiments: Union[str, Iterable[str]],
    seeds: Union[int, Sequence[int], None] = None,
    policy: Optional[SeedPolicy] = None,
    profile: Optional[RunProfile] = None,
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
    jobs: int = 1,
    job_dir: Any = None,
    cache: Optional[ResultCache] = None,
    collect_digests: bool = True,
    on_event: Any = None,
) -> Job:
    """Run a durable experiment × seed campaign; return the :class:`Job`.

    The sweep is journaled under ``job_dir/<job_id>/``: re-invoking with
    an identical spec (or ``macaw-sim sweep --resume <job_id>``) replays
    completed cells from the journal and result cache — byte-identically
    — and continues where the previous invocation stopped.

    Parameters
    ----------
    experiments:
        One experiment id or an iterable of them.
    seeds:
        Fixed allocation: an explicit seed list, or an int N meaning
        seeds ``0..N-1``.  Mutually exclusive with ``policy``; when both
        are omitted the sweep runs seeds ``0..2``.
    policy:
        A :class:`SeedPolicy` — notably :class:`AdaptiveSeeds`, the
        sequential stopping rule that keeps adding seeds per experiment
        until the target metric's confidence interval is tighter than
        ``epsilon`` (or a hard cap is hit).
    profile:
        The :class:`RunProfile` every cell runs under; None adopts the
        ambient profile.
    duration, warmup:
        Run bounds; None uses each driver's defaults.
    jobs:
        Worker processes (1 = inline).  Purely a speed knob: the digest
        set is identical at any value.
    job_dir, cache:
        Where the job journal and the result cache live (None:
        :data:`~repro.service.job.DEFAULT_JOB_DIR` and no cache).
    collect_digests:
        Capture per-cell trace digests (the resume-equality contract).
    on_event:
        Optional ``(kind, record)`` progress callback: each journal record
        as :func:`~repro.service.run_job` appends it (``job``, ``cell``,
        ``stop``, ``interrupted``, ``complete``), plus an ``interrupt``
        notice ``{"drain": n}`` when ^C starts a drain.
    """
    from repro.core.config import RunProfile
    from repro.service.job import DEFAULT_JOB_DIR, JobSpec
    from repro.service.orchestrator import run_job
    from repro.service.policy import FixedSeeds

    if policy is not None and seeds is not None:
        raise ValueError("pass either seeds or policy, not both")
    if policy is None:
        if seeds is None:
            seeds = 3
        if isinstance(seeds, int):
            seeds = range(seeds)
        policy = FixedSeeds(seeds=tuple(seeds))
    if isinstance(experiments, str):
        experiments = (experiments,)
    spec = JobSpec(
        experiments=tuple(experiments),
        policy=policy,
        profile=profile if profile is not None else RunProfile.current(),
        duration=duration,
        warmup=warmup,
        collect_digests=collect_digests,
    )
    return run_job(spec, jobs=jobs,
                   job_dir=job_dir if job_dir is not None else DEFAULT_JOB_DIR,
                   cache=cache, on_event=on_event)
