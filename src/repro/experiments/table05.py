"""Table 5 — the DS (data-sending) packet for exposed terminals (Figure 5).

Two adjoining cells; each pad sends a saturating UDP stream to its own
base station, and the pads hear each other (classic exposed terminals).
Without the DS announcement an exposed pad cannot tell when the other's
RTS-CTS succeeded, so it contends blindly against 16 ms data transmissions
and loses; the DS packet tells overhearers exactly when the exchange will
end, synchronizing contention.

Reproduction note (EXPERIMENTS.md): the paper reports complete starvation
of one pad without DS; our no-DS runs reach a noisier shared equilibrium
in which *both* pads lose roughly half their throughput to failed
contention.  Either way the with-DS column's fair, near-capacity split is
the paper's headline result and reproduces closely (≈23/23 pps).
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.tables import ComparisonTable
from repro.core.config import macaw_config
from repro.experiments.base import Experiment, ExperimentSpec
from repro.topo.figures import fig5_exposed_pads

STREAMS = ["P1-B1", "P2-B2"]

PAPER = {
    "RTS-CTS-DATA-ACK": dict(zip(STREAMS, [46.72, 0.0])),
    "RTS-CTS-DS-DATA-ACK": dict(zip(STREAMS, [23.35, 22.63])),
}


class Table5(Experiment):
    spec = ExperimentSpec(
        exp_id="table5",
        title="Table 5: the DS packet, exposed terminals (Figure 5)",
        figure="fig5",
        description=(
            "P1→B1 and P2→B2 with the pads in mutual range. DS announces a "
            "won RTS-CTS exchange so exposed terminals defer and contend "
            "only in real contention periods."
        ),
    )
    default_duration = 400.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        variants = {
            "RTS-CTS-DATA-ACK": macaw_config(
                use_ds=False, use_rrts=False, per_destination=False
            ),
            "RTS-CTS-DS-DATA-ACK": macaw_config(use_rrts=False, per_destination=False),
        }
        for name, config in variants.items():
            scenario = fig5_exposed_pads(config=config, seed=seed).build().run(duration)
            for stream, pps in scenario.throughputs(warmup=warmup).items():
                table.add(name, stream, pps, PAPER[name].get(stream))
            del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        without = [table.value("RTS-CTS-DATA-ACK", s) for s in STREAMS]
        with_ds = [table.value("RTS-CTS-DS-DATA-ACK", s) for s in STREAMS]
        return {
            "with DS: fair split (within 25%)": (
                min(with_ds) > 0 and max(with_ds) / min(with_ds) < 1.25
            ),
            "with DS: total near capacity (> 40 pps)": sum(with_ds) > 40.0,
            "without DS: substantial degradation (total < 80% of DS total)": (
                sum(without) < 0.8 * sum(with_ds)
            ),
        }
