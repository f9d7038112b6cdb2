"""The benchmark's workloads: what one operation runs and how it is checked.

Every workload is a batch job with one caller, so the benchmark runs it as
a closed loop: the next operation starts when the previous one returns.
An operation is one call users make through :mod:`repro.api` — one
``run()`` of a paper table, or one cold ``sweep()`` plus its resume.
A run's operations cycle through the inputs :meth:`Workload.inputs`
derives from ``--seed``, so operations with equal inputs must give
identical simulated output.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The seed the simulated-statistics reference (reference.json) is taken at.
REFERENCE_SEED = 1
#: Sweep worker processes: one per core of the 2-core machine the
#: benchmark was sized on.
SWEEP_JOBS = 2
#: Ambient settings that would change what a workload runs.
_AMBIENT_ENV = ("REPRO_QUEUE", "REPRO_SANITIZE", "REPRO_METRICS")


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources at {package}")
    sys.path.insert(0, str(SRC))
    for name in _AMBIENT_ENV:
        os.environ.pop(name, None)
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {package}")


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    #: Simulated horizon and warm-up of every scenario, in simulated seconds.
    duration: float
    warmup: float
    #: Table 2 under the full optional machinery (trace, sanitizer,
    #: metrics, faults) with the trace digest collected.
    audited: bool = False
    #: > 0: a sweep of this many seeds (cells) plus a resume.
    sweep_cells: int = 0
    #: Distinct seeds a timed run cycles through.  One table run at one
    #: seed is a lottery (Table 11's MACA capture swings paper_err by a
    #: third between seeds); a run's figures are taken over this many.
    seeds_per_run: int = 4

    @property
    def is_sweep(self) -> bool:
        return self.sweep_cells > 0

    def profile(self) -> Any:
        from repro.api import RunProfile
        from repro.fault.presets import get_preset

        if self.audited:
            return RunProfile(trace=True, sanitize=True, metrics=1.0,
                              faults=get_preset("churn-light"))
        return RunProfile()

    def seeds(self, seed: int) -> List[int]:
        """The cells of one sweep operation."""
        return [seed * self.sweep_cells + i for i in range(self.sweep_cells)]

    def inputs(self, seed: int) -> List[int]:
        """The seeds a timed run cycles through (a sweep covers its own)."""
        if self.is_sweep:
            return [seed]
        n = self.seeds_per_run
        return [seed * n + i for i in range(n)]

    def tiny(self) -> "Workload":
        """The same workload at a smoke-test size."""
        return replace(self, duration=4.0, warmup=1.0,
                       sweep_cells=min(self.sweep_cells, 2))


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("table2", "table2", duration=50.0, warmup=5.0),
        Workload("office", "table11", duration=30.0, warmup=3.0, seeds_per_run=8),
        Workload("table2_audited", "table2", duration=30.0, warmup=3.0,
                 audited=True),
        Workload("table2_sweep", "table2", duration=8.0, warmup=1.0,
                 sweep_cells=8),
    )
}


@dataclass
class Op:
    """Outcome of one operation."""

    seed: int
    #: Host seconds for the whole operation (sweep: cold sweep + resume).
    wall_s: float
    #: Host seconds of the simulating part (sweep: the cold sweep).
    cold_s: float
    cells: int
    failed: int = 0
    error: Optional[str] = None
    tables: List[Any] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    digests: List[Optional[str]] = field(default_factory=list)
    #: Kernel events the operation fired, when counted.
    events_fired: int = 0
    # Sweep only.
    resume_s: float = 0.0
    cache_hit_frac: float = 0.0
    worker_retries: int = 0
    execute_cell_s: float = 0.0
    digest_set: Optional[str] = None

    def signature(self) -> Any:
        """What must repeat exactly across operations with equal inputs."""
        return ([(t.measured, t.paper) for t in self.tables], self.digests)


def run_op(w: Workload, seed: int, workdir: Path, jobs: int = SWEEP_JOBS,
           collect_digest: bool = False) -> Op:
    """Run one operation of ``w``; failures are caught and counted."""
    if w.is_sweep:
        return _sweep_op(w, seed, workdir, jobs)
    from repro import api

    start = time.perf_counter()
    try:
        result = api.run(w.experiment, seed=seed, duration=w.duration,
                         warmup=w.warmup, profile=w.profile(),
                         collect_digest=collect_digest or w.audited)
    except Exception as exc:  # a failed operation is counted, not fatal
        wall = time.perf_counter() - start
        return Op(seed, wall, wall, cells=1, failed=1, error=repr(exc))
    wall = time.perf_counter() - start
    return Op(seed, wall, wall, cells=1, tables=[result.table],
              checks=result.checks, digests=[result.digest])


def _sweep_op(w: Workload, seed: int, workdir: Path, jobs: int) -> Op:
    from repro import api

    shutil.rmtree(workdir, ignore_errors=True)
    cache = api.ResultCache(str(workdir / "cache"))
    spec = dict(seeds=w.seeds(seed), jobs=jobs, job_dir=workdir / "jobs",
                cache=cache, duration=w.duration, warmup=w.warmup,
                profile=w.profile())
    start = time.perf_counter()
    try:
        cold = api.sweep(w.experiment, **spec)
        cold_s = time.perf_counter() - start
        hits, misses = cache.hits, cache.misses
        resumed = api.sweep(w.experiment, **spec)
    except Exception as exc:  # a failed sweep fails every one of its cells
        wall = time.perf_counter() - start
        return Op(seed, wall, wall, cells=w.sweep_cells, failed=w.sweep_cells,
                  error=repr(exc))
    wall = time.perf_counter() - start
    gets = cache.hits - hits + cache.misses - misses
    cold_digests = [o.digest for o in cold.outcomes]
    resumed_digests = [o.digest for o in resumed.outcomes]
    # A cell fails when it is missing or its resumed digest differs.
    failed = sum(a != b for a, b in zip(cold_digests, resumed_digests))
    failed += w.sweep_cells - min(len(cold_digests), len(resumed_digests))
    checks: Dict[str, bool] = {}
    for outcome in cold.outcomes:
        for name, ok in outcome.result.checks.items():
            checks[name] = checks.get(name, True) and ok
    return Op(
        seed, wall, cold_s, cells=w.sweep_cells, failed=failed,
        tables=[o.result.table for o in cold.outcomes], checks=checks,
        digests=cold_digests, resume_s=wall - cold_s,
        cache_hit_frac=(cache.hits - hits) / gets if gets else 0.0,
        worker_retries=cold.retries + resumed.retries,
        execute_cell_s=sum(o.wall_s for o in cold.outcomes),
        digest_set=cold.digest_set(),
    )


def paper_err(tables: List[Any]) -> float:
    """Error against the paper: Σ|measured − paper| / Σ paper.

    Taken over every table cell with a paper value, on the per-cell mean
    of ``tables`` (the distinct inputs of a run, or a sweep's cells).
    Summing before dividing weights each cell by its paper value, so a
    near-zero reference (Table 11's 0.06 pps) does not turn one stream's
    seed lottery into the whole figure.
    """
    diff = total = 0.0
    for variant, refs in tables[0].paper.items():
        for stream, ref in refs.items():
            measured = statistics.fmean(t.value(variant, stream) for t in tables)
            diff += abs(measured - ref)
            total += ref
    return diff / total


def output_problems(ops: List[Op]) -> List[str]:
    """Output checks: sane tables, and equal outputs for equal inputs."""
    problems = []
    signatures: Dict[int, Any] = {}
    for op in ops:
        if op.failed:
            continue
        if len(op.tables) != op.cells:
            problems.append(f"{len(op.tables)} tables for {op.cells} cells")
        for table in op.tables:
            if not table.paper:
                problems.append(f"{table.title}: no paper reference values")
            for variant, values in table.measured.items():
                if set(values) != set(table.stream_order):
                    problems.append(f"{table.title}/{variant}: missing streams")
                bad = [s for s, v in values.items()
                       if not (math.isfinite(v) and v >= 0)]
                if bad:
                    problems.append(f"{table.title}/{variant}: bad values for {bad}")
        if signatures.setdefault(op.seed, op.signature()) != op.signature():
            problems.append(f"seed {op.seed}: equal inputs gave different outputs")
    return problems
