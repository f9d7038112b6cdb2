"""Figure 8 — backoff leakage across a cell border (§3.4).

Two adjoining cells with very different congestion: C1 has four saturated
pads near the border, C2 has one border pad (P5) and one interior pad
(P6).  The border pads overhear each other, so with plain (non-per-
destination) copying, C1's high backoff values leak into C2 — slowing P6
down even though its own cell is idle — and C2's low values leak back into
C1, causing extra collisions.  The paper presents this configuration as an
argument (no table); we quantify it by comparing the interior pad's
throughput under plain copying versus per-destination copying.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.tables import ComparisonTable
from repro.core.config import macaw_config
from repro.experiments.base import Experiment, ExperimentSpec
from repro.topo.figures import fig8_leakage

STREAMS = ["P1-B1", "P2-B1", "P3-B1", "P4-B1", "P5-B2", "P6-B2"]


class Fig8Leakage(Experiment):
    spec = ExperimentSpec(
        exp_id="fig8",
        title="Figure 8: backoff leakage between cells of unequal congestion",
        figure="fig8",
        description=(
            "Four saturated border pads in C1 next to a nearly idle C2. "
            "Shared-counter copying lets C1's congestion estimate leak into "
            "C2; per-destination estimates keep them apart."
        ),
    )
    default_duration = 400.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        variants = {
            "shared copy": macaw_config(per_destination=False),
            "per-destination": macaw_config(),
        }
        for name, config in variants.items():
            scenario = fig8_leakage(config=config, seed=seed).build().run(duration)
            for stream, pps in scenario.throughputs(warmup=warmup).items():
                table.add(name, stream, pps)
            del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        shared_p6 = table.value("shared copy", "P6-B2")
        per_dest_p6 = table.value("per-destination", "P6-B2")
        per_dest_c1 = [table.value("per-destination", s) for s in STREAMS[:4]]
        return {
            "per-destination protects the interior pad (P6 >= shared P6)": (
                per_dest_p6 >= 0.95 * shared_p6
            ),
            "interior pad stays healthy under per-destination (> 15 pps)": (
                per_dest_p6 > 15.0
            ),
            "congested cell still shares its channel (every C1 stream > 1 pps)": all(
                v > 1.0 for v in per_dest_c1
            ),
        }
