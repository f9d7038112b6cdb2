"""The unit of parallel experiment work: one (experiment, seed) cell.

The paper's evaluation is a grid of tables × variants × seeds.  Each
:class:`Cell` names one grid cell — an experiment id plus a seed and run
bounds — and a :class:`CellResult` carries everything a table, bench or
equivalence test needs back from running it.  Cells are tiny, picklable
and order-independent, which is what lets the cell scheduler fan them
out over worker processes and the result cache memoize them on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, List, Optional, Sequence

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import get_experiment


@dataclass(frozen=True)
class Cell:
    """One (experiment, seed) run request.

    ``duration``/``warmup`` of None mean "the experiment's default"; use
    :meth:`resolved` to pin them, which the cache must do so that explicit
    defaults and implied defaults hit the same entry.
    """

    exp_id: str
    seed: int = 0
    duration: Optional[float] = None
    warmup: Optional[float] = None

    def resolved(self) -> "Cell":
        """The same cell with duration/warmup pinned to concrete values.

        Defaults come from :meth:`Experiment.horizon
        <repro.experiments.base.Experiment.horizon>`, so a cell whose
        bounds leave no measurement window raises ValueError here,
        before any grid runs.
        """
        duration, warmup = get_experiment(self.exp_id).horizon(
            self.duration, self.warmup)
        if (duration, warmup) == (self.duration, self.warmup):
            return self
        return replace(self, duration=duration, warmup=warmup)


@dataclass
class CellResult:
    """Outcome of one cell run."""

    cell: Cell
    result: ExperimentResult
    #: Combined trace digest when the run collected digests (None otherwise).
    digest: Optional[str] = None
    #: Wall-clock seconds the run took (0.0 when served from the cache).
    wall_s: float = 0.0
    #: True when the result came from the on-disk cache, not a fresh run.
    cached: bool = False
    #: Qualitative check failures, for quick fleet-level summaries.
    failed_checks: List[str] = field(default_factory=list)
    #: Metrics dumps (one plain dict per scenario run inside the cell; see
    #: ``repro.obs.probes.ScenarioMetrics.dump``) when the sweep ran with
    #: a metrics interval; empty otherwise.
    metrics: List[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failed_checks


def expand_cells(
    exp_ids: Iterable[str],
    seeds: Sequence[int],
    duration: Optional[float] = None,
    warmup: Optional[float] = None,
) -> List[Cell]:
    """The full experiment × seed grid, experiments outermost.

    The order is the deterministic output order of
    :func:`repro.service.run_cells` regardless of worker scheduling.
    """
    return [
        Cell(exp_id=exp_id, seed=seed, duration=duration, warmup=warmup)
        for exp_id in exp_ids
        for seed in seeds
    ]


def parse_seeds(spec: str, base: int,
                warn: Callable[[str], None]) -> List[int]:
    """Seed list from a ``--seeds`` value: a count, or a comma-joined list.

    A count ``N`` means seeds ``base..base+N-1``.  A list keeps first
    occurrences in order: silent double-counting would skew sweep means
    and pass rates, so duplicates are dropped and ``warn`` receives one
    message saying so.  Raises ValueError on a malformed value.
    """
    try:
        seeds = [int(item) for item in spec.split(",") if item.strip()]
    except ValueError:
        seeds = []
    if not seeds:
        raise ValueError(f"invalid --seeds value {spec!r}")
    if "," in spec:
        unique = list(dict.fromkeys(seeds))
        if len(unique) != len(seeds):
            warn(f"--seeds list {spec!r} contains duplicates; "
                 f"running each seed once ({len(unique)} unique)")
        return unique
    count = seeds[0]
    if count < 1:
        raise ValueError(f"--seeds count must be >= 1, got {count}")
    return list(range(base, base + count))
