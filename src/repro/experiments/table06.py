"""Table 6 — RRTS: the receiver contends on the sender's behalf (Figure 6).

Figure 5's topology with both flows reversed: each base station sends a
saturating stream to its pad, and the two pads hear each other.  The
losing base station's RTSs arrive while its pad is deferring to the other
cell's exchange, so the pad can never answer — and the base has no way to
learn when contention periods begin.  The RRTS packet lets the deferring
pad remember the first unanswerable RTS and contend for its sender once
the medium frees.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.tables import ComparisonTable
from repro.core.config import macaw_config
from repro.experiments.base import Experiment, ExperimentSpec
from repro.topo.figures import fig6_reversed_flows

STREAMS = ["B1-P1", "B2-P2"]

PAPER = {
    "no RRTS": dict(zip(STREAMS, [0.0, 42.87])),
    "RRTS": dict(zip(STREAMS, [20.39, 20.53])),
}


class Table6(Experiment):
    spec = ExperimentSpec(
        exp_id="table6",
        title="Table 6: RRTS, receiver-initiated contention (Figure 6)",
        figure="fig6",
        description=(
            "B1→P1 and B2→P2 with the pads in mutual range. Without RRTS "
            "one base-to-pad stream starves; with it the deferring pad "
            "contends on its base's behalf and the split is fair."
        ),
    )
    default_duration = 400.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        variants = {
            "no RRTS": macaw_config(use_rrts=False, per_destination=False),
            "RRTS": macaw_config(per_destination=False),
        }
        for name, config in variants.items():
            scenario = fig6_reversed_flows(config=config, seed=seed).build().run(duration)
            for stream, pps in scenario.throughputs(warmup=warmup).items():
                table.add(name, stream, pps, PAPER[name].get(stream))
            del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        without = {s: table.value("no RRTS", s) for s in STREAMS}
        with_rrts = [table.value("RRTS", s) for s in STREAMS]
        loser = min(without.values())
        winner = max(without.values())
        return {
            "no RRTS: one stream starves (< 10% of the other)": loser < 0.1 * winner,
            "no RRTS: winner near capacity (> 35 pps)": winner > 35.0,
            "RRTS: fair split (within 30%)": (
                min(with_rrts) > 0 and max(with_rrts) / min(with_rrts) < 1.3
            ),
            "RRTS: loser recovers (> 10 pps)": min(with_rrts) > 10.0,
        }
