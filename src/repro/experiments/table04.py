"""Table 4 — the link-layer ACK under intermittent noise (§3.3.1).

A single TCP stream from a pad to its base station, with a per-packet
error probability ∈ {0, 0.001, 0.01, 0.1}.  Without a link ACK, every
noise-destroyed DATA packet must be recovered by TCP, whose minimum
timeout is 0.5 s; with the ACK, the MAC retransmits within milliseconds.
The two variants differ only in ``use_ack``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.tables import ComparisonTable
from repro.core.config import macaw_config
from repro.experiments.base import Experiment, ExperimentSpec
from repro.topo.figures import single_stream_cell

ERROR_RATES: List[float] = [0.0, 0.001, 0.01, 0.1]

PAPER = {
    "RTS-CTS-DATA": dict(zip(["PER=0", "PER=0.001", "PER=0.01", "PER=0.1"],
                             [40.41, 36.58, 16.65, 2.48])),
    "RTS-CTS-DATA-ACK": dict(zip(["PER=0", "PER=0.001", "PER=0.01", "PER=0.1"],
                                 [36.76, 36.67, 35.52, 9.93])),
}


class Table4(Experiment):
    spec = ExperimentSpec(
        exp_id="table4",
        title="Table 4: link-layer ACK vs TCP-only recovery under noise",
        figure="",
        description=(
            "One saturated TCP stream, pad to base, at four packet error "
            "rates. Link-layer retransmission recovers losses at media "
            "timescales; without it, recovery waits for TCP's >= 0.5 s RTO."
        ),
    )
    default_duration = 300.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        variants = {
            "RTS-CTS-DATA": macaw_config(use_ack=False, use_ds=False, use_rrts=False),
            "RTS-CTS-DATA-ACK": macaw_config(use_ds=False, use_rrts=False),
        }
        for name, config in variants.items():
            for rate in ERROR_RATES:
                scenario = (
                    single_stream_cell(
                        config=config, seed=seed, transport="tcp", error_rate=rate
                    )
                    .build()
                    .run(duration)
                )
                row = f"PER={rate:g}"
                table.add(name, row, scenario.throughput("P-B", warmup=warmup),
                          PAPER[name].get(row))
                del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        no_ack = {r: table.value("RTS-CTS-DATA", r) for r in table.stream_order}
        ack = {r: table.value("RTS-CTS-DATA-ACK", r) for r in table.stream_order}
        return {
            "no noise: both near full TCP rate (> 28 pps)": (
                no_ack["PER=0"] > 28 and ack["PER=0"] > 28
            ),
            "PER=0.001: essentially identical (within 15%)": (
                abs(no_ack["PER=0.001"] - ack["PER=0.001"])
                < 0.15 * max(ack["PER=0.001"], 1.0)
            ),
            "PER=0.01: ACK clearly ahead": ack["PER=0.01"] > 1.15 * no_ack["PER=0.01"],
            "PER=0.1: no-ACK collapses (< 25% of ACK)": (
                no_ack["PER=0.1"] < 0.25 * max(ack["PER=0.1"], 1.0)
            ),
            "ACK overhead at zero noise < 20%": (
                ack["PER=0"] > 0.8 * no_ack["PER=0"]
            ),
        }
