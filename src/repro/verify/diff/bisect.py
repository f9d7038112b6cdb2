"""First-divergence bisection between two execution configurations.

Once the oracle has two configurations whose digests disagree, this
module localizes *where* they part ways.  The key property making that
sound is horizon-prefix stability: a scenario's trace records up to time
``t`` are identical whether the run stops at ``t`` or continues to its
full duration (``run(until=...)`` only ever stops earlier; nothing in
the stack schedules differently based on the total horizon).  Digest
equality at horizon ``h`` therefore means "the first divergent event is
after ``h``", which is exactly the predicate a binary search needs.

The search replays both configurations digest-only at shrinking
horizons, then makes one final *traced* replay at the smallest divergent
horizon and walks the two record lists to the first index where they
differ — the (time, seq, record) triple the repro JSON pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.sim.trace import TraceRecord
from repro.topo.builder import ScenarioRun

__all__ = [
    "BisectError",
    "DivergencePoint",
    "Replay",
    "ScenarioRun",
    "locate_first_divergence",
    "record_to_dict",
]

#: Probe budget: each probe replays both configurations once.
MAX_PROBES = 48

#: Stop narrowing once the horizon window is this small (seconds).
HORIZON_TOL_S = 1e-6


class BisectError(RuntimeError):
    """A replay failed mid-bisection (driver crash at a short horizon)."""


#: A replay callback: ``replay(horizon, traced)`` re-executes one
#: configuration up to ``horizon`` and returns one :class:`ScenarioRun`
#: per scenario the run built, in scenario-run order.
Replay = Callable[[float, bool], List[ScenarioRun]]


def record_to_dict(record: TraceRecord) -> Dict[str, Any]:
    """JSON-safe rendering of a trace record (detail values via repr)."""
    return {
        "time": record.time,
        "category": record.category,
        "station": record.station,
        "detail": {key: repr(value) for key, value in sorted(record.detail.items())},
    }


@dataclass
class DivergencePoint:
    """The first divergent trace record between two configurations."""

    #: Smallest probed horizon at which the runs already disagree.
    horizon: float
    #: Index of the divergent scenario in scenario-run order.
    scenario_index: int
    #: Index of the first divergent record within that scenario (its seq).
    event_index: int
    #: Simulated time of the first divergent record.
    time: Optional[float]
    #: The two records at ``event_index`` (None past a shorter trace).
    record_a: Optional[Dict[str, Any]]
    record_b: Optional[Dict[str, Any]]
    #: Scenario digests at ``horizon``.
    digest_a: str = ""
    digest_b: str = ""
    #: Digest-only probe count the search spent.
    probes: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "horizon": self.horizon,
            "scenario_index": self.scenario_index,
            "event_index": self.event_index,
            "time": self.time,
            "record_a": self.record_a,
            "record_b": self.record_b,
            "digest_a": self.digest_a,
            "digest_b": self.digest_b,
            "probes": self.probes,
        }


def _first_mismatch(runs_a: List[ScenarioRun], runs_b: List[ScenarioRun]) -> Optional[int]:
    """Index of the first scenario whose digests disagree, else None."""
    for index in range(min(len(runs_a), len(runs_b))):
        if runs_a[index].digest != runs_b[index].digest:
            return index
    if len(runs_a) != len(runs_b):
        return min(len(runs_a), len(runs_b))
    return None


def _diverged_at(replay_a: Replay, replay_b: Replay, horizon: float,
                 scenario_index: int) -> bool:
    """Whether scenario ``scenario_index`` already differs at ``horizon``."""
    try:
        runs_a = replay_a(horizon, False)
        runs_b = replay_b(horizon, False)
    except Exception as exc:
        raise BisectError(
            f"replay failed at horizon {horizon!r}: {exc}"
        ) from exc
    if scenario_index >= len(runs_a) or scenario_index >= len(runs_b):
        return True
    return runs_a[scenario_index].digest != runs_b[scenario_index].digest


def locate_first_divergence(
    replay_a: Replay,
    replay_b: Replay,
    duration: float,
    max_probes: int = MAX_PROBES,
    tol: float = HORIZON_TOL_S,
) -> Optional[DivergencePoint]:
    """Bisect two configurations down to their first divergent record.

    Returns None when the full-horizon replays agree (the divergence did
    not reproduce under these replayers — e.g. a jobs-axis mismatch that
    vanishes in-process).
    """
    runs_a = replay_a(duration, False)
    runs_b = replay_b(duration, False)
    scenario_index = _first_mismatch(runs_a, runs_b)
    if scenario_index is None:
        return None

    # Narrow [lo, hi]: digests agree at lo, disagree at hi.
    lo, hi = 0.0, duration
    probes = 0
    while hi - lo > tol and probes < max_probes:
        mid = (lo + hi) / 2.0
        probes += 1
        if _diverged_at(replay_a, replay_b, mid, scenario_index):
            hi = mid
        else:
            lo = mid

    # One traced replay at the divergent horizon pins the exact record.
    traced_a = replay_a(hi, True)
    traced_b = replay_b(hi, True)
    records_a = traced_a[scenario_index].records if scenario_index < len(traced_a) else []
    records_b = traced_b[scenario_index].records if scenario_index < len(traced_b) else []
    records_a = records_a or []
    records_b = records_b or []

    event_index = None
    for index in range(min(len(records_a), len(records_b))):
        if records_a[index] != records_b[index]:
            event_index = index
            break
    if event_index is None:
        event_index = min(len(records_a), len(records_b))

    rec_a = records_a[event_index] if event_index < len(records_a) else None
    rec_b = records_b[event_index] if event_index < len(records_b) else None
    time = rec_a.time if rec_a is not None else (rec_b.time if rec_b is not None else None)
    return DivergencePoint(
        horizon=hi,
        scenario_index=scenario_index,
        event_index=event_index,
        time=time,
        record_a=record_to_dict(rec_a) if rec_a is not None else None,
        record_b=record_to_dict(rec_b) if rec_b is not None else None,
        digest_a=(traced_a[scenario_index].digest or "") if scenario_index < len(traced_a) else "",
        digest_b=(traced_b[scenario_index].digest or "") if scenario_index < len(traced_b) else "",
        probes=probes,
    )
