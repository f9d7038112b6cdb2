"""Execution modes: the axes the differential oracle crosses.

An :class:`ExecMode` names one point in the (queue backend × worker
count × metrics) space.  Every axis is documented as digest-neutral;
the oracle's job is to catch the day that stops being true.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence

from repro.core.config import RunProfile
from repro.sim.queues import resolve_backend

__all__ = ["ExecMode", "default_matrix", "full_matrix"]

#: Metrics sampling interval (seconds) the ``metrics`` axis switches on.
METRICS_INTERVAL_S = 2.0


@dataclass(frozen=True)
class ExecMode:
    """One execution configuration of an otherwise-identical run."""

    #: Event-queue backend spec (``"heap"``, ``"wheel"``, ``"wheel:W"``).
    queue: str = "heap"
    #: Worker processes (1 = serial in-process).
    jobs: int = 1
    #: Collect periodic metrics during the run.
    metrics: bool = False

    def __post_init__(self) -> None:
        resolve_backend(self.queue)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs!r}")

    @property
    def label(self) -> str:
        """Compact human label, e.g. ``"wheel+jobs2+metrics"``."""
        parts = [self.queue]
        if self.jobs > 1:
            parts.append(f"jobs{self.jobs}")
        if self.metrics:
            parts.append("metrics")
        return "+".join(parts)

    def apply(self, profile: RunProfile) -> RunProfile:
        """The profile with this mode's queue/metrics knobs applied.

        The jobs axis is an *execution* choice, not a profile knob — the
        oracle realizes it when it runs the cell.
        """
        return profile.but(
            queue=self.queue,
            metrics=METRICS_INTERVAL_S if self.metrics else False,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "queue": self.queue,
            "jobs": self.jobs,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExecMode":
        return cls(
            queue=str(payload.get("queue", "heap")),
            jobs=int(payload.get("jobs", 1)),
            metrics=bool(payload.get("metrics", False)),
        )


def default_matrix(queues: Sequence[str] = ("heap", "wheel")) -> List[ExecMode]:
    """Baseline plus one-axis variants: covers every axis in 4 runs.

    One divergent axis is enough to flag a bug; the full cross product
    is for post-mortem confirmation, not the smoke path.
    """
    base_queue = queues[0]
    matrix = [ExecMode(queue=base_queue)]
    matrix.extend(ExecMode(queue=q) for q in queues[1:])
    matrix.append(ExecMode(queue=base_queue, jobs=2))
    matrix.append(ExecMode(queue=base_queue, metrics=True))
    return matrix


def full_matrix(queues: Sequence[str] = ("heap", "wheel")) -> List[ExecMode]:
    """The full cross product: queue × jobs × metrics."""
    return [
        ExecMode(queue=queue, jobs=jobs, metrics=metrics)
        for queue in queues for jobs in (1, 2) for metrics in (False, True)
    ]
