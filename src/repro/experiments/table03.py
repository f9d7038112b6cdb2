"""Table 3 — the multiple stream model (Figure 4).

One cell: the base station sends to P1 and P2 while P3 sends to the base,
each stream offering 32 pps.  With a single FIFO and a single backoff per
*station*, bandwidth is split per station: the base's two streams share one
half while P3's single stream gets the other half (≈ 2:1:1 by stream).
Running a queue and backoff per *stream* restores per-stream fairness.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.tables import ComparisonTable
from repro.core.config import maca_config
from repro.experiments.base import Experiment, ExperimentSpec
from repro.topo.figures import fig4_mixed_directions

STREAMS = ["B-P1", "B-P2", "P3-B"]

PAPER = {
    "single stream": dict(zip(STREAMS, [11.42, 12.34, 22.74])),
    "multiple stream": dict(zip(STREAMS, [15.07, 15.82, 15.64])),
}


class Table3(Experiment):
    spec = ExperimentSpec(
        exp_id="table3",
        title="Table 3: single queue vs multiple stream model (Figure 4)",
        figure="fig4",
        description=(
            "Base→P1, Base→P2 and P3→Base at 32 pps each. One FIFO per "
            "station allocates per station (the pad stream gets ~2x each "
            "base stream); per-stream queues allocate per stream."
        ),
    )
    default_duration = 400.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        variants = {
            "single stream": maca_config(copy_backoff=True, backoff="mild"),
            "multiple stream": maca_config(
                copy_backoff=True, backoff="mild", multi_queue=True
            ),
        }
        for name, config in variants.items():
            scenario = fig4_mixed_directions(config=config, seed=seed).build().run(duration)
            for stream, pps in scenario.throughputs(warmup=warmup).items():
                table.add(name, stream, pps, PAPER[name].get(stream))
            del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        single = {s: table.value("single stream", s) for s in STREAMS}
        multi = {s: table.value("multiple stream", s) for s in STREAMS}
        base_share = single["B-P1"] + single["B-P2"]
        return {
            "single queue: pad stream ~= base station total (within 35%)": (
                abs(single["P3-B"] - base_share) < 0.35 * max(single["P3-B"], base_share)
            ),
            "single queue: pad stream >= 1.5x each base stream": (
                single["P3-B"] >= 1.5 * max(single["B-P1"], single["B-P2"])
            ),
            "multiple stream: all within 25% of each other": (
                min(multi.values()) > 0
                and max(multi.values()) / min(multi.values()) < 1.25
            ),
        }
