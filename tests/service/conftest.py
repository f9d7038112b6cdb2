"""Fast fake experiments for the service-layer tests.

Cells run in forked workers (Linux), so anything registered into the
experiment registry here is visible to children too — no real 400 s
table runs needed to exercise scheduling, journaling, and retry.
"""

import os
from typing import Dict

import pytest

from repro.analysis.tables import ComparisonTable
from repro.experiments.base import Experiment, ExperimentSpec
from repro.experiments import registry
from repro.service.scheduler import ATTEMPT_ENV
from repro.topo import ScenarioBuilder

FAST_DURATION = 2.0
FAST_WARMUP = 0.5


class FastContention(Experiment):
    """Two contending pads, 2 simulated seconds: seed-dependent totals."""

    spec = ExperimentSpec(
        exp_id="svc-fast",
        title="service test: two contending pads",
        figure="",
        description="tiny contention cell for orchestrator tests",
    )
    default_duration = FAST_DURATION
    default_warmup = FAST_WARMUP

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        builder = ScenarioBuilder(seed=seed, protocol="macaw")
        builder.add_base("B")
        builder.add_pad("P1")
        builder.add_pad("P2")
        builder.clique("B", "P1", "P2")
        builder.udp("P1", "B", rate_pps=64.0)
        builder.udp("P2", "B", rate_pps=64.0)
        scenario = builder.build().run(duration)
        table = ComparisonTable(self.spec.title)
        for stream, pps in scenario.throughputs(warmup=warmup).items():
            table.add("macaw", stream, pps, None)
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        return {"ran": True}


class CrashOnce(FastContention):
    """Dies (hard, no traceback) on every cell's first dispatch attempt.

    Exercises the worker-death retry path: attempt 1 exits without a
    payload, attempt 2 succeeds.  Only meaningful with ``jobs > 1`` —
    inline execution would take the test process down with it.
    """

    spec = ExperimentSpec(
        exp_id="svc-crash-once",
        title="service test: worker dies on first attempt",
        figure="",
        description="crash-once cell for retry tests",
    )

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        if os.environ.get(ATTEMPT_ENV) == "1":
            os._exit(17)
        return super()._run(seed, duration, warmup)


class AlwaysCrash(FastContention):
    """Dies on every attempt: exhausts the retry budget."""

    spec = ExperimentSpec(
        exp_id="svc-crash-always",
        title="service test: worker always dies",
        figure="",
        description="always-crash cell for retry-exhaustion tests",
    )

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        os._exit(23)


class RaisesInside(FastContention):
    """Raises deterministically inside the cell (never retried)."""

    spec = ExperimentSpec(
        exp_id="svc-raise",
        title="service test: deterministic in-cell failure",
        figure="",
        description="raising cell for failure-propagation tests",
    )

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        raise ValueError("deliberate in-cell failure")


class ReportsPid(FastContention):
    """Records the pid of the process that ran the cell (no simulation)."""

    spec = ExperimentSpec(
        exp_id="svc-pid",
        title="service test: which process ran the cell",
        figure="",
        description="pid-reporting cell for worker-placement tests",
    )

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        table.add("pid", "pid", float(os.getpid()), None)
        return table


_FAKES = (FastContention, CrashOnce, AlwaysCrash, RaisesInside, ReportsPid)


@pytest.fixture
def fake_experiments():
    """Register the fast fakes for the duration of one test."""
    for cls in _FAKES:
        registry._FACTORIES[cls.spec.exp_id] = cls
    try:
        yield {cls.spec.exp_id: cls for cls in _FAKES}
    finally:
        for cls in _FAKES:
            registry._FACTORIES.pop(cls.spec.exp_id, None)

