"""Table 2 — BEB vs MILD backoff adjustment at higher contention (Figure 3).

Six pads each offer 32 pps of UDP to one base station, all with backoff
copying.  BEB's reset-to-minimum after every success forces the cell to
re-fight the contention war for every packet; MILD's gentle adjustment
keeps a stable estimate.  The paper reports roughly 2× the per-stream
throughput for MILD.

Reproduction note (see EXPERIMENTS.md): in our simulator BEB's wars
resolve more cheaply than in the paper's (slot-synchronized stations
resolve ties quickly), so the throughput gap is smaller; the war itself is
clearly visible as an order-of-magnitude difference in failed RTS attempts,
which we check alongside MILD's fairness.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.metrics import max_spread
from repro.analysis.tables import ComparisonTable
from repro.core.config import maca_config
from repro.experiments.base import Experiment, ExperimentSpec
from repro.topo.figures import fig3_six_pads

STREAMS = [f"P{i}-B" for i in range(1, 7)]

PAPER = {
    "BEB copy": dict(zip(STREAMS, [2.96, 3.01, 2.84, 2.93, 3.00, 3.05])),
    "MILD copy": dict(zip(STREAMS, [6.10, 6.18, 6.05, 6.12, 6.14, 6.09])),
}


class Table2(Experiment):
    spec = ExperimentSpec(
        exp_id="table2",
        title="Table 2: BEB vs MILD with copying, six pads (Figure 3)",
        figure="fig3",
        description=(
            "Six saturated pads to one base. Copying synchronizes counters; "
            "BEB then re-escalates from BO_min after every success while "
            "MILD holds a stable contention estimate."
        ),
    )
    default_duration = 400.0

    def __init__(self) -> None:
        #: Failed-attempt counts per variant, filled during _run (the war
        #: signature the checks use).
        self.cts_timeouts: Dict[str, int] = {}

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        variants = {
            "BEB copy": maca_config(copy_backoff=True),
            "MILD copy": maca_config(copy_backoff=True, backoff="mild"),
        }
        for name, config in variants.items():
            scenario = fig3_six_pads(config=config, seed=seed).build().run(duration)
            for stream, pps in scenario.throughputs(warmup=warmup).items():
                table.add(name, stream, pps, PAPER[name].get(stream))
            self.cts_timeouts[name] = sum(
                scenario.station(f"P{i}").mac.stats.cts_timeouts for i in range(1, 7)
            )
            del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        mild = [table.value("MILD copy", s) for s in STREAMS]
        checks = {
            "MILD allocation fair (spread < 1.5 pps)": max_spread(mild) < 1.5,
            "MILD per-stream throughput near paper (4.5-8 pps)": all(
                4.5 < v < 8.0 for v in mild
            ),
        }
        if self.cts_timeouts:
            checks["BEB fights >5x more contention wars than MILD"] = (
                self.cts_timeouts["BEB copy"] > 5 * max(self.cts_timeouts["MILD copy"], 1)
            )
        return checks
