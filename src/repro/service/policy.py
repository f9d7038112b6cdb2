"""Seed allocation policies: fixed lists and CI-driven sequential stopping.

The paper's tables average several runs per configuration; how many is a
judgement call the fixed ``--seeds N`` flag forces up front.  A
:class:`SeedPolicy` moves that decision into the sweep itself: the
orchestrator keeps asking the policy for more seeds per experiment until
the policy says stop.

* :class:`FixedSeeds` reproduces ``--seeds``: one predetermined list.
* :class:`AdaptiveSeeds` is the sequential stopping rule: run a minimum
  batch, then keep adding seeds while the 95% (configurable) confidence
  interval of the target metric is wider than ``epsilon`` — up to a hard
  cap.  The decision is a pure function of the completed metric values
  *in seed order*, so a sweep stops at the same point whether cells ran
  serially or across a worker pool.

Both policies are frozen dataclasses that serialize into the job spec
(and hence into the job digest): resuming a job replays the exact same
allocation decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

__all__ = [
    "AdaptiveSeeds",
    "FixedSeeds",
    "SeedPolicy",
    "cell_metric",
    "ci_half_width",
    "policy_from_dict",
    "t_critical",
]

#: Two-sided Student-t critical values at 95% confidence, indexed by
#: degrees of freedom 1..30; beyond 30 the normal approximation is used.
_T_95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)

#: Same table at 99% confidence.
_T_99 = (
    63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
    3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
    2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
)

_Z = {0.95: 1.960, 0.99: 2.576}
_TABLES = {0.95: _T_95, 0.99: _T_99}


def t_critical(df: int, confidence: float = 0.95) -> float:
    """Two-sided Student-t critical value (normal beyond 30 df).

    Only the 0.95 and 0.99 levels are tabulated — enough for stopping
    rules, without a scipy dependency.
    """
    table = _TABLES.get(confidence)
    if table is None:
        raise ValueError(
            f"confidence must be one of {sorted(_TABLES)}, got {confidence!r}"
        )
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df!r}")
    if df <= len(table):
        return table[df - 1]
    return _Z[confidence]


def ci_half_width(values: Sequence[float], confidence: float = 0.95) -> float:
    """Half-width of the two-sided CI of the mean of ``values``.

    Returns ``inf`` for fewer than two values (no variance estimate yet).
    """
    n = len(values)
    if n < 2:
        return float("inf")
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return t_critical(n - 1, confidence) * math.sqrt(variance / n)


def cell_metric(table: Any, metric: str) -> float:
    """Extract the stopping metric from a run's ComparisonTable.

    ``"total"`` sums every measured (variant, stream) cell;
    ``"variant:NAME"`` sums one variant's streams — the per-config scalar
    the CI is computed over.
    """
    if metric == "total":
        return float(sum(table.totals().values()))
    if metric.startswith("variant:"):
        name = metric[len("variant:"):]
        totals = table.totals()
        if name not in totals:
            raise KeyError(
                f"metric variant {name!r} not in table "
                f"(has: {', '.join(totals)})"
            )
        return float(totals[name])
    raise ValueError(f"unknown metric spec {metric!r}")


class SeedPolicy:
    """How many seeds one experiment configuration gets.

    ``initial_seeds()`` is the opening allocation; every time the whole
    allocation so far has completed, the orchestrator calls
    ``next_seeds(metrics)`` with the metric values in seed order and
    either extends the allocation or — on an empty return — closes the
    configuration.
    """

    kind = "abstract"

    def initial_seeds(self) -> List[int]:
        raise NotImplementedError

    def next_seeds(self, metrics: Sequence[float]) -> List[int]:
        raise NotImplementedError

    def stop_reason(self, metrics: Sequence[float]) -> str:
        """Why the policy stopped, for the journal (called after stop)."""
        return "fixed"

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedSeeds(SeedPolicy):
    """The classic ``--seeds`` behaviour: one predetermined seed list."""

    seeds: Tuple[int, ...]

    kind = "fixed"

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate seeds in {self.seeds!r}")

    def initial_seeds(self) -> List[int]:
        return list(self.seeds)

    def next_seeds(self, metrics: Sequence[float]) -> List[int]:
        return []

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "fixed", "seeds": list(self.seeds)}


@dataclass(frozen=True)
class AdaptiveSeeds(SeedPolicy):
    """Sequential stopping: add seeds until the CI is tight enough.

    Starting from ``min_seeds`` consecutive seeds at ``base_seed``, the
    policy adds ``step`` more whenever the metric's confidence-interval
    half-width still exceeds ``epsilon``, and stops at ``max_seeds``
    regardless — the hard cap that bounds a noisy configuration.
    """

    #: Target half-width of the metric's CI, in metric units (pps).
    epsilon: float
    metric: str = "total"
    min_seeds: int = 3
    max_seeds: int = 32
    step: int = 1
    base_seed: int = 0
    confidence: float = 0.95

    kind = "adaptive"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(
                f"epsilon must be a finite number > 0, got {self.epsilon!r}"
            )
        if not 2 <= self.min_seeds <= self.max_seeds:
            raise ValueError(
                f"need 2 <= min_seeds <= max_seeds, got "
                f"{self.min_seeds!r}, {self.max_seeds!r}"
            )
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step!r}")
        t_critical(1, self.confidence)  # validates the confidence level
        cell_metric_ok = self.metric == "total" or self.metric.startswith("variant:")
        if not cell_metric_ok:
            raise ValueError(f"unknown metric spec {self.metric!r}")

    def initial_seeds(self) -> List[int]:
        return list(range(self.base_seed, self.base_seed + self.min_seeds))

    def half_width(self, metrics: Sequence[float]) -> float:
        return ci_half_width(metrics, self.confidence)

    def next_seeds(self, metrics: Sequence[float]) -> List[int]:
        n = len(metrics)
        if n >= self.max_seeds:
            return []
        if self.half_width(metrics) <= self.epsilon:
            return []
        upper = min(n + self.step, self.max_seeds)
        return list(range(self.base_seed + n, self.base_seed + upper))

    def stop_reason(self, metrics: Sequence[float]) -> str:
        if self.half_width(metrics) <= self.epsilon:
            return "ci"
        return "cap"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "adaptive",
            "epsilon": self.epsilon,
            "metric": self.metric,
            "min_seeds": self.min_seeds,
            "max_seeds": self.max_seeds,
            "step": self.step,
            "base_seed": self.base_seed,
            "confidence": self.confidence,
        }


def policy_from_dict(payload: Mapping[str, Any]) -> SeedPolicy:
    """Inverse of ``SeedPolicy.to_dict`` (job-spec deserialization)."""
    kind = payload.get("kind")
    if kind == "fixed":
        return FixedSeeds(seeds=tuple(payload["seeds"]))
    if kind == "adaptive":
        return AdaptiveSeeds(
            epsilon=float(payload["epsilon"]),
            metric=str(payload.get("metric", "total")),
            min_seeds=int(payload.get("min_seeds", 3)),
            max_seeds=int(payload.get("max_seeds", 32)),
            step=int(payload.get("step", 1)),
            base_seed=int(payload.get("base_seed", 0)),
            confidence=float(payload.get("confidence", 0.95)),
        )
    raise ValueError(f"unknown seed policy kind {kind!r}")
