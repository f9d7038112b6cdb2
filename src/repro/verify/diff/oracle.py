"""The differential execution oracle.

Two granularities share the same mode matrix:

* :class:`DiffOracle` runs registered *experiments* (an experiment ×
  seed grid) under every :class:`~repro.verify.diff.modes.ExecMode` via
  the public grid surface (:func:`repro.service.run_cells` — the same
  machinery ``repro.api`` drives) and compares per-cell digests.
* :class:`ScenarioOracle` runs one *scenario case* (anything exposing
  ``build_builder(profile)``/``duration`` — the fuzzer's generated
  cases) under every mode in-process, which is what the bisector and
  shrinker need for fast replays.

The snapshot axis is realized as a genuine capture/restore roundtrip:
the first pass warms the store (straight-through + capture), the second
restores from it, and the *restored* run's digest is the mode's answer —
exactly the path PR 8's invariant promises is byte-identical.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.core.config import RunProfile, WarmStart
from repro.experiments.registry import get_experiment
from repro.runner.cells import Cell, expand_cells
from repro.service.scheduler import run_cells, run_in_worker
from repro.snapshot import Snapshot
from repro.topo.builder import ScenarioRun, capturing
from repro.verify.diff.bisect import Replay
from repro.verify.diff.modes import ExecMode, default_matrix

__all__ = [
    "CellDivergence",
    "DiffOracle",
    "OracleReport",
    "ScenarioOracle",
]


@dataclass
class CellDivergence:
    """One (cell, mode) digest mismatch against the baseline mode."""

    cell: Optional[Cell]
    mode_a: ExecMode
    mode_b: ExecMode
    digest_a: Optional[str]
    digest_b: Optional[str]

    def describe(self) -> str:
        where = f"{self.cell.exp_id} seed {self.cell.seed}" if self.cell else "scenario"
        return (
            f"{where}: {self.mode_a.label} != {self.mode_b.label} "
            f"({(self.digest_a or '?')[:12]} vs {(self.digest_b or '?')[:12]})"
        )


@dataclass
class OracleReport:
    """Everything one oracle sweep produced."""

    cells: List[Cell]
    modes: List[ExecMode]
    #: mode label -> per-cell digest list (input cell order).
    digests: Dict[str, List[Optional[str]]] = field(default_factory=dict)
    divergences: List[CellDivergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


class DiffOracle:
    """Run an experiment grid under a mode matrix; assert digest equality."""

    def __init__(
        self,
        experiments: Sequence[str],
        seeds: Sequence[int] = (0,),
        duration: Optional[float] = None,
        warmup: Optional[float] = None,
        profile: Optional[RunProfile] = None,
        modes: Optional[Sequence[ExecMode]] = None,
        snap_store: Optional[str] = None,
    ) -> None:
        self.cells = [
            cell.resolved()
            for cell in expand_cells(experiments, list(seeds), duration, warmup)
        ]
        if not self.cells:
            raise ValueError("DiffOracle needs at least one (experiment, seed) cell")
        self.modes = list(modes) if modes is not None else default_matrix()
        if len(self.modes) < 2:
            raise ValueError("the mode matrix needs at least two modes to compare")
        self.profile = profile if profile is not None else RunProfile()
        #: Mid-horizon the snapshot axis roundtrips through — below every
        #: cell's duration so capture always precedes the end of the run.
        self.snap_at = min(cell.duration for cell in self.cells) / 2.0
        self._snap_store = snap_store
        self._tmp: Optional[tempfile.TemporaryDirectory] = None

    def _store(self) -> str:
        if self._snap_store is not None:
            Path(self._snap_store).mkdir(parents=True, exist_ok=True)
            return self._snap_store
        if self._tmp is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="macaw-diff-snap-")
        return self._tmp.name

    def digests_for(self, mode: ExecMode) -> List[Optional[str]]:
        """Per-cell digests (input cell order) under one execution mode."""
        profile = mode.apply(self.profile)
        if mode.snapshot:
            warmed = profile.but(
                warm_start=WarmStart(at=self.snap_at, store=self._store())
            )
            # Pass 1 warms the store (straight-through + capture) ...
            run_cells(self.cells, jobs=mode.jobs, collect_digests=True,
                      profile=warmed)
            # ... pass 2 takes the restore path; its digests answer.
            results = run_cells(self.cells, jobs=mode.jobs,
                                collect_digests=True, profile=warmed)
        else:
            results = run_cells(self.cells, jobs=mode.jobs,
                                collect_digests=True, profile=profile)
        return [result.digest for result in results]

    def check(self) -> OracleReport:
        """Run every mode and compare each against the baseline (mode 0)."""
        report = OracleReport(cells=list(self.cells), modes=list(self.modes))
        baseline_mode = self.modes[0]
        baseline = self.digests_for(baseline_mode)
        report.digests[baseline_mode.label] = baseline
        for mode in self.modes[1:]:
            digests = self.digests_for(mode)
            report.digests[mode.label] = digests
            for cell, expected, got in zip(self.cells, baseline, digests):
                if expected != got:
                    report.divergences.append(CellDivergence(
                        cell=cell, mode_a=baseline_mode, mode_b=mode,
                        digest_a=expected, digest_b=got,
                    ))
        return report

    # ------------------------------------------------------------ bisection
    def replayer(self, cell: Cell, mode: ExecMode) -> Replay:
        """A :data:`~repro.verify.diff.bisect.Replay` for one (cell, mode).

        Replays run in-process regardless of the mode's ``jobs`` axis
        (a worker process cannot be horizon-shrunk record-by-record); a
        divergence that only manifests across process boundaries will
        come back "did not reproduce" rather than mislocalized.  The
        snapshot axis keeps its roundtrip whenever the horizon extends
        past the capture point.
        """
        applied = mode.apply(self.profile)
        snap_at = self.snap_at
        store = self._store() if mode.snapshot else None

        def replay(horizon: float, traced: bool) -> List[ScenarioRun]:
            profile = applied
            if store is not None and horizon > snap_at:
                profile = applied.but(
                    warm_start=WarmStart(at=snap_at, store=store)
                )
                # Warm once so the measured replay is the restore path.
                _run_experiment(cell.exp_id, cell.seed, horizon, profile,
                                traced=False)
            return _run_experiment(cell.exp_id, cell.seed, horizon, profile,
                                   traced=traced)

        return replay


def _run_experiment(exp_id: str, seed: int, horizon: float,
                    profile: RunProfile, traced: bool) -> List[ScenarioRun]:
    """One in-process experiment run, returning per-scenario runs.

    ``warmup=0`` everywhere: warm-up only affects *measurement* windows,
    never the event stream, and bisection horizons routinely shrink
    below any configured warm-up.
    """
    with capturing(digests=True, traces=traced) as runs:
        get_experiment(exp_id).run(seed=seed, duration=horizon, warmup=0.0,
                                   profile=profile)
    return runs


class ScenarioOracle:
    """Differential oracle over one directly-built scenario case.

    ``case`` is anything with ``build_builder(profile) -> ScenarioBuilder``
    and a ``duration`` attribute — i.e.
    :class:`repro.verify.diff.fuzz.FuzzScenario`.  The jobs axis runs it
    in a worker process (:func:`~repro.service.scheduler.run_in_worker`),
    so under the spawn start method it must also pickle.
    """

    def __init__(
        self,
        modes: Optional[Sequence[ExecMode]] = None,
        profile: Optional[RunProfile] = None,
    ) -> None:
        self.modes = list(modes) if modes is not None else default_matrix()
        if len(self.modes) < 2:
            raise ValueError("the mode matrix needs at least two modes to compare")
        base = profile if profile is not None else RunProfile()
        # Tracing is the oracle's measurement instrument.
        self.profile = base.but(trace=True)

    def run_case(self, case: Any, mode: ExecMode,
                 horizon: Optional[float] = None,
                 traced: bool = False) -> ScenarioRun:
        """Run ``case`` under ``mode`` up to ``horizon`` (default: full)."""
        duration = float(horizon if horizon is not None else case.duration)
        if mode.jobs > 1:
            # The jobs axis: the process boundary a scheduled cell crosses.
            return run_in_worker(_run_case, case, mode, self.profile,
                                 duration, traced,
                                 label=f"scenario case ({mode.label})")
        return _run_case(case, mode, self.profile, duration, traced)

    def check(self, case: Any) -> Optional[CellDivergence]:
        """First digest mismatch against the baseline mode, or None."""
        baseline_mode = self.modes[0]
        baseline = self.run_case(case, baseline_mode)
        for mode in self.modes[1:]:
            run = self.run_case(case, mode)
            if run.digest != baseline.digest:
                return CellDivergence(
                    cell=None, mode_a=baseline_mode, mode_b=mode,
                    digest_a=baseline.digest, digest_b=run.digest,
                )
        return None

    def replayer(self, case: Any, mode: ExecMode) -> Replay:
        """A bisection replay callback for one (case, mode).

        Like :meth:`DiffOracle.replayer`, replays stay in-process (the
        jobs axis collapses to serial execution here).
        """
        def replay(horizon: float, traced: bool) -> List[ScenarioRun]:
            return [_run_case(case, mode, self.profile, horizon, traced)]

        return replay


#: Snapshot-roundtrip point, as a fraction of the case duration.
SNAP_FRACTION = 0.5


def _run_case(case: Any, mode: ExecMode, profile: RunProfile,
              duration: float, traced: bool) -> ScenarioRun:
    """Run one scenario case in this process under one mode."""
    applied = mode.apply(profile)
    builder = case.build_builder(applied)
    snap_at = float(case.duration) * SNAP_FRACTION
    if mode.snapshot and duration > snap_at:
        scenario = builder.build()
        scenario.sim.run(until=snap_at)
        snap = Snapshot.capture(scenario, builder)
        scenario = builder.build()
        snap.restore(scenario, builder)
        scenario.run(duration)
    else:
        scenario = builder.build().run(duration)
    return ScenarioRun(
        digest=scenario.sim.trace.digest(),
        records=list(scenario.sim.trace) if traced else None,
    )
