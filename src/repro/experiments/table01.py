"""Table 1 — backoff copying fixes BEB's channel capture (Figure 2).

Two pads each offer 64 pps of UDP to the base station of a single cell.
Under plain BEB one pad captures the channel and the other is completely
backed off; copying the backoff counter from overheard packet headers
equalizes the two pads' views of congestion and splits the channel evenly.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.tables import ComparisonTable
from repro.core.config import maca_config
from repro.experiments.base import Experiment, ExperimentSpec
from repro.topo.figures import fig2_two_pads

PAPER = {
    "BEB": {"P1-B": 48.5, "P2-B": 0.0},
    "BEB copy": {"P1-B": 23.82, "P2-B": 23.32},
}


class Table1(Experiment):
    spec = ExperimentSpec(
        exp_id="table1",
        title="Table 1: BEB capture vs backoff copying (Figure 2)",
        figure="fig2",
        description=(
            "Two saturated pads in one cell under MACA. Plain BEB starves "
            "one pad; copying the backoff field from overheard headers "
            "restores an even split."
        ),
    )
    default_duration = 600.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        variants = {
            "BEB": maca_config(),
            "BEB copy": maca_config(copy_backoff=True),
        }
        # The paper: "EVENTUALLY a single pad transmits at channel capacity"
        # — capture is an absorbing drift whose onset varies by seed, so we
        # report the converged allocation (the final third of the run).
        measure_from = max(warmup, duration * 2.0 / 3.0)
        for name, config in variants.items():
            scenario = fig2_two_pads(config=config, seed=seed).build().run(duration)
            for stream, pps in scenario.throughputs(warmup=measure_from).items():
                table.add(name, stream, pps, PAPER[name].get(stream))
            del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        beb = [table.value("BEB", s) for s in ("P1-B", "P2-B")]
        copy = [table.value("BEB copy", s) for s in ("P1-B", "P2-B")]
        return {
            "BEB captures: loser below 25% of winner": min(beb) < 0.25 * max(beb),
            "BEB winner near channel capacity (> 40 pps)": max(beb) > 40.0,
            "copying splits within 25%": (
                min(copy) > 0 and max(copy) / min(copy) < 1.25
            ),
            # The paper's copy column totals 47.1; ours runs a few pps lower
            # because BEB-with-copying re-fights ties after every reset
            # (see EXPERIMENTS.md).  Fairness, the table's point, holds.
            "copying total healthy (> 35 pps)": sum(copy) > 35.0,
        }
