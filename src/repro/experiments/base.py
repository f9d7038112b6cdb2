"""Common experiment machinery."""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.tables import ComparisonTable
from repro.core.config import RunProfile, active_profile
from repro.topo.builder import capturing


@dataclass(frozen=True)
class ExperimentSpec:
    """Identity of one reproduced experiment."""

    exp_id: str          # e.g. "table5"
    title: str           # e.g. "Table 5: the DS packet (Figure 5)"
    figure: str          # paper figure providing the topology, "" if none
    description: str     # one paragraph: workload, variants, expectation


@dataclass
class ExperimentResult:
    """Everything a bench or test needs from one experiment run."""

    spec: ExperimentSpec
    table: ComparisonTable
    #: Qualitative reproduction checks: name → passed.
    checks: Dict[str, bool] = field(default_factory=dict)
    seed: int = 0
    duration: float = 0.0
    warmup: float = 0.0
    #: Combined SHA-256 over the trace digests of every scenario the
    #: experiment ran, when the run collected digests (None otherwise).
    #: Byte-identical digests are the serial-vs-parallel equivalence
    #: contract the runner's tests enforce.
    digest: Optional[str] = None

    @property
    def passed(self) -> bool:
        """True when every qualitative check holds."""
        return all(self.checks.values())

    def render(self, show_paper: bool = True) -> str:
        """The table, then one PASS/FAIL line per check."""
        lines = [self.table.render(show_paper=show_paper)]
        if self.checks:
            lines.append("")
            for name, ok in self.checks.items():
                lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        return "\n".join(lines)


def check_horizon(duration: float, warmup: float) -> None:
    """Raise ValueError unless both are finite and the warm-up is >= 0.

    A NaN or infinite duration never stops the clock, and a negative
    warm-up stretches the window that every rate is divided by past the
    simulated time, deflating the measurement without any sign.
    """
    for name, value in (("duration", duration), ("warmup", warmup)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number of seconds "
                             f"(got {value!r})")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0 s (got {warmup:g} s)")


class Experiment(ABC):
    """One reproduced table: build, run variants, check the shape.

    Subclasses set :attr:`spec`, :attr:`default_duration` and
    :attr:`default_warmup` (the paper runs 500–2000 s with a 50 s warm-up;
    drivers default to a duration that keeps the qualitative result stable
    while staying laptop-friendly) and implement :meth:`_run` and
    :meth:`_check`.
    """

    spec: ExperimentSpec
    default_duration: float = 500.0
    default_warmup: float = 50.0

    def run(
        self,
        seed: int = 0,
        duration: Optional[float] = None,
        warmup: Optional[float] = None,
        collect_digest: bool = False,
        profile: Optional[RunProfile] = None,
    ) -> ExperimentResult:
        """Run all variants and evaluate the qualitative checks.

        ``profile`` is the :class:`~repro.core.config.RunProfile` every
        scenario the driver builds runs under; None adopts the ambient
        profile or defaults.  The profile is made ambient for the whole
        run, so drivers' plain ``ScenarioBuilder(...)`` calls pick it up
        without any per-experiment plumbing.

        With ``collect_digest`` the run force-enables tracing, captures the
        trace digest of every scenario the driver builds, and stores one
        combined SHA-256 on the result — the determinism fingerprint that
        must not depend on whether the run happened serially, in a worker
        process, or on a different machine.
        """
        duration, warmup = self.horizon(duration, warmup)
        if profile is None:
            profile = RunProfile.current()
        digest: Optional[str] = None
        with active_profile(profile), capturing(digests=collect_digest) as runs:
            table = self._run(seed=seed, duration=duration, warmup=warmup)
        if collect_digest:
            hasher = hashlib.sha256()
            for run in runs:
                hasher.update(f"{run.digest}\n".encode("ascii"))
            digest = hasher.hexdigest()
        checks = self._check(table)
        return ExperimentResult(
            spec=self.spec, table=table, checks=checks,
            seed=seed, duration=duration, warmup=warmup, digest=digest,
        )

    def measurement_start(self, warmup: float) -> float:
        """Simulated time the measured window opens: the end of warm-up."""
        return warmup

    def horizon(
        self, duration: Optional[float] = None, warmup: Optional[float] = None
    ) -> Tuple[float, float]:
        """``(duration, warmup)`` with defaults filled in, validated.

        Raises ValueError, before any scenario is built, when either value
        fails :func:`check_horizon` or the measured window would be empty.
        """
        duration = duration if duration is not None else self.default_duration
        warmup = warmup if warmup is not None else self.default_warmup
        check_horizon(duration, warmup)
        start = self.measurement_start(warmup)
        if start >= duration:
            raise ValueError(
                f"{self.spec.exp_id} measures from t={start:g} s, so its "
                f"duration must exceed that (got {duration:g} s)"
            )
        return duration, warmup

    @abstractmethod
    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        """Build the scenario(s), run them, and fill the comparison table."""

    @abstractmethod
    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        """Qualitative reproduction checks on the measured values."""


@dataclass
class SeedSweepResult:
    """Aggregate of one experiment across seeds.

    Single runs inherit the paper's methodology (the paper reports one
    run per table); a sweep shows which outcomes are stable and which —
    like who wins a capture battle — are seed lotteries.  Build one from
    per-seed :class:`ExperimentResult`s, however they were run.
    """

    spec: ExperimentSpec
    results: List[ExperimentResult]

    def mean_table(self) -> ComparisonTable:
        """Per-cell mean across seeds (paper reference values preserved)."""
        first = self.results[0].table
        table = ComparisonTable(f"{first.title} — mean of {len(self.results)} seeds")
        for variant in first.variants():
            for stream in first.stream_order:
                values = [r.table.value(variant, stream) for r in self.results]
                table.add(variant, stream, sum(values) / len(values),
                          first.paper.get(variant, {}).get(stream))
        return table

    def check_pass_rates(self) -> Dict[str, float]:
        """Fraction of seeds passing each qualitative check."""
        rates: Dict[str, float] = {}
        for name in self.results[0].checks:
            passed = sum(1 for r in self.results if r.checks.get(name))
            rates[name] = passed / len(self.results)
        return rates

    @property
    def passed(self) -> bool:
        """True when every check held on every seed."""
        return all(rate == 1.0 for rate in self.check_pass_rates().values())

    def render(self, show_paper: bool = True) -> str:
        """The mean table, then one pass-rate line per check."""
        lines = [self.mean_table().render(show_paper=show_paper), ""]
        for name, rate in self.check_pass_rates().items():
            lines.append(f"  [{rate:4.0%}] {name}")
        return "\n".join(lines)
