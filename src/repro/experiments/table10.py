"""Table 10 — the three-cell scenario (Figure 10, §3.5).

Eleven UDP streams at 32 pps each: bidirectional streams between P1–P4 and
B1 (a congested cell whose pads also hear P5 across the border),
bidirectional streams between P5 and B2, and P6→B3 from a pad straddling
the C2/C3 border.  The paper's headline results:

* MACAW's total throughput beats MACA's by over 37% — its congestion
  handling more than pays for its overhead;
* MACAW's intra-cell allocation is far fairer (max spread 0.59 pps in C1
  versus 9.60 for MACA);
* congestion in C1 propagates only weakly into the neighbouring cells.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.metrics import max_spread
from repro.analysis.tables import ComparisonTable
from repro.experiments.base import Experiment, ExperimentSpec
from repro.topo.figures import fig10_three_cells

C1_STREAMS: List[str] = [
    "P1-B1", "P2-B1", "P3-B1", "P4-B1",
    "B1-P1", "B1-P2", "B1-P3", "B1-P4",
]
ALL_STREAMS: List[str] = C1_STREAMS + ["P5-B2", "B2-P5", "P6-B3"]

PAPER = {
    "MACA": dict(zip(ALL_STREAMS,
                     [9.61, 2.45, 3.70, 0.46, 0.12, 0.01, 0.20, 0.66,
                      2.24, 3.21, 28.40])),
    "MACAW": dict(zip(ALL_STREAMS,
                      [3.45, 3.84, 3.27, 3.80, 3.83, 3.72, 3.72, 3.59,
                       7.82, 7.80, 25.16])),
}


class Table10(Experiment):
    spec = ExperimentSpec(
        exp_id="table10",
        title="Table 10: three-cell scenario, MACA vs MACAW (Figure 10)",
        figure="fig10",
        description=(
            "Congested C1 (8 streams) beside lightly loaded C2 and C3. "
            "MACAW wins on total throughput and intra-cell fairness, and "
            "shields the uncongested neighbours."
        ),
    )
    default_duration = 500.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        for name, protocol in (("MACA", "maca"), ("MACAW", "macaw")):
            scenario = (
                fig10_three_cells(protocol=protocol, seed=seed).build().run(duration)
            )
            throughput = scenario.throughputs(warmup=warmup)
            for stream in ALL_STREAMS:
                table.add(name, stream, throughput[stream], PAPER[name].get(stream))
            del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        maca = {s: table.value("MACA", s) for s in ALL_STREAMS}
        macaw = {s: table.value("MACAW", s) for s in ALL_STREAMS}
        # Note (EXPERIMENTS.md): the paper's MACA loses so much airtime to
        # BEB contention wars that MACAW beats it on *total* throughput; in
        # our simulator MACA's capture keeps its total high, so the total
        # comparison does not reproduce.  The fairness and shielding
        # claims — which are what §3.5 emphasizes — do.
        return {
            "MACA starves at least one C1 stream (< 1 pps)": (
                min(maca[s] for s in C1_STREAMS) < 1.0
            ),
            "MACAW keeps every C1 stream alive (> 2 pps)": all(
                macaw[s] > 2.0 for s in C1_STREAMS
            ),
            "MACAW C1 spread < MACA C1 spread": (
                max_spread([macaw[s] for s in C1_STREAMS])
                < max_spread([maca[s] for s in C1_STREAMS])
            ),
            "MACAW C1 allocation fair (spread < 2 pps)": (
                max_spread([macaw[s] for s in C1_STREAMS]) < 2.0
            ),
            "MACAW keeps uncongested P6-B3 healthy (> 20 pps)": macaw["P6-B3"] > 20.0,
            "MACAW serves the border cell better than MACA": (
                macaw["P5-B2"] + macaw["B2-P5"] >= maca["P5-B2"] + maca["B2-P5"]
            ),
        }
