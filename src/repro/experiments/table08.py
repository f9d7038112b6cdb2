"""Table 8 — per-destination backoff isolates an unreachable pad (Figure 9).

One cell, three pads, bidirectional 32 pps UDP streams with the base.
Pad P1 is switched off mid-run; the base keeps trying to reach it.  With a
single backoff counter per station, every timed-out attempt toward the
dead pad inflates the counter used for *all* streams — and copying spreads
the inflated value to the whole cell, collapsing total throughput.  With
per-destination backoff (Appendix B.2) the failure is charged to the
B1→P1 stream alone.

Throughput is measured only after the power-off, which is when the two
designs diverge.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.tables import ComparisonTable
from repro.core.config import macaw_config
from repro.experiments.base import Experiment, ExperimentSpec
from repro.topo.figures import fig9_dead_pad

#: Streams the paper's table reports (the dead pad's own rows are omitted).
STREAMS = ["B1-P2", "P2-B1", "B1-P3", "P3-B1"]

PAPER = {
    "single backoff": dict(zip(STREAMS, [3.79, 3.78, 3.62, 3.43])),
    # The OCR lost the per-destination column; §3.4 states "the overall
    # throughput is no longer affected by the unresponsive pad", i.e. each
    # live stream keeps roughly its fair share (~7.5 pps).
    "per-destination": dict(zip(STREAMS, [7.5, 7.5, 7.5, 7.5])),
}

POWER_OFF_AT = 100.0


class Table8(Experiment):
    spec = ExperimentSpec(
        exp_id="table8",
        title="Table 8: single vs per-destination backoff with a dead pad (Figure 9)",
        figure="fig9",
        description=(
            "Bidirectional streams with three pads; P1 dies at t=100 s. "
            "A single shared counter lets the dead destination poison every "
            "stream; per-destination estimates contain the damage."
        ),
    )
    default_duration = 500.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        variants = {
            "single backoff": macaw_config(per_destination=False),
            "per-destination": macaw_config(),
        }
        measure_from = self.measurement_start(warmup)
        for name, config in variants.items():
            scenario = (
                fig9_dead_pad(config=config, seed=seed, power_off_at=POWER_OFF_AT)
                .build()
                .run(duration)
            )
            for stream in STREAMS:
                pps = scenario.throughput(stream, warmup=measure_from)
                table.add(name, stream, pps, PAPER[name].get(stream))
            del scenario  # frees its trace before the next variant is built
        return table

    def measurement_start(self, warmup: float) -> float:
        return max(warmup, POWER_OFF_AT + 20.0)

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        single = [table.value("single backoff", s) for s in STREAMS]
        per_dest = [table.value("per-destination", s) for s in STREAMS]
        return {
            "per-destination total exceeds single-backoff total by > 20%": (
                sum(per_dest) > 1.2 * sum(single)
            ),
            "per-destination keeps live streams healthy (each > 5 pps)": all(
                v > 5.0 for v in per_dest
            ),
            "single backoff loses > 15% of per-destination's total": (
                sum(single) < 0.85 * sum(per_dest)
            ),
        }
