"""Table 9 — protocol overhead on a single uncontended stream (§3.5).

One saturated UDP stream from a pad to its base station.  MACA's
RTS-CTS-DATA exchange against MACAW's RTS-CTS-DS-DATA-ACK: the two extra
30-byte control packets cost roughly 8% of throughput — the price MACAW
pays everywhere for the robustness it buys under congestion and noise.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.metrics import channel_utilization
from repro.analysis.tables import ComparisonTable
from repro.experiments.base import Experiment, ExperimentSpec
from repro.topo.figures import single_stream_cell

PAPER = {
    "MACA (RTS-CTS-DATA)": {"P-B": 53.04},
    "MACAW (RTS-CTS-DS-DATA-ACK)": {"P-B": 49.07},
}


class Table9(Experiment):
    spec = ExperimentSpec(
        exp_id="table9",
        title="Table 9: single-stream overhead, MACA vs MACAW",
        figure="",
        description=(
            "One saturated pad-to-base UDP stream. The DS and ACK packets "
            "cost MACAW ~8% against MACA; the paper quotes 84% vs 78% "
            "channel utilization."
        ),
    )
    default_duration = 300.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        for name, protocol in (
            ("MACA (RTS-CTS-DATA)", "maca"),
            ("MACAW (RTS-CTS-DS-DATA-ACK)", "macaw"),
        ):
            scenario = (
                single_stream_cell(protocol=protocol, seed=seed).build().run(duration)
            )
            table.add(name, "P-B", scenario.throughput("P-B", warmup=warmup),
                      PAPER[name]["P-B"])
            del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        maca = table.value("MACA (RTS-CTS-DATA)", "P-B")
        macaw = table.value("MACAW (RTS-CTS-DS-DATA-ACK)", "P-B")
        return {
            "MACA utilization in 78-90% of channel": (
                0.78 < channel_utilization(maca) < 0.90
            ),
            "MACAW utilization in 68-84% of channel": (
                0.68 < channel_utilization(macaw) < 0.84
            ),
            "MACAW overhead between 4% and 20%": 0.80 < macaw / maca < 0.96,
        }
