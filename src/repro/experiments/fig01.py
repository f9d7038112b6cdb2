"""Figure 1 — hidden and exposed terminals: CSMA versus MACA (§2.2).

The paper's motivating figure has no table of its own; this experiment
quantifies its two pathologies.

* **Hidden terminals**: A→B and C→B, where A and C cannot hear each other.
  CSMA's carrier sense sees a free channel at both senders, so their
  packets collide at B; MACA's CTS from B silences whichever sender did
  not win the exchange.
* **Exposed terminals**: B→A and C→D, where C hears B but is out of range
  of A.  CSMA's carrier sense makes C defer needlessly, serializing two
  transfers that could proceed in parallel; MACA lets C transmit (C hears
  B's RTS but not A's CTS).
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.tables import ComparisonTable
from repro.core.config import maca_config
from repro.experiments.base import Experiment, ExperimentSpec
from repro.mac.csma import CsmaConfig
from repro.topo.figures import fig1_exposed_terminal, fig1_hidden_terminal


class Fig1HiddenExposed(Experiment):
    spec = ExperimentSpec(
        exp_id="fig1",
        title="Figure 1: hidden/exposed terminals, CSMA vs MACA",
        figure="fig1",
        description=(
            "Hidden: two senders out of mutual range collide at a common "
            "receiver under CSMA. Exposed: CSMA serializes two transfers "
            "that MACA runs in parallel."
        ),
    )
    default_duration = 300.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        variants = {
            "CSMA": ("csma", CsmaConfig()),
            "MACA": ("maca", maca_config(copy_backoff=True)),
        }
        for name, (protocol, config) in variants.items():
            hidden = (
                fig1_hidden_terminal(protocol=protocol, config=config, seed=seed)
                .build()
                .run(duration)
            )
            for stream, pps in hidden.throughputs(warmup=warmup).items():
                table.add(name, f"hidden {stream}", pps)
            del hidden  # frees its trace before the next scenario is built
            exposed = (
                fig1_exposed_terminal(protocol=protocol, config=config, seed=seed)
                .build()
                .run(duration)
            )
            for stream, pps in exposed.throughputs(warmup=warmup).items():
                table.add(name, f"exposed {stream}", pps)
            del exposed
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        csma_hidden = (
            table.value("CSMA", "hidden A-B") + table.value("CSMA", "hidden C-B")
        )
        maca_hidden = (
            table.value("MACA", "hidden A-B") + table.value("MACA", "hidden C-B")
        )
        csma_exposed = (
            table.value("CSMA", "exposed B-A") + table.value("CSMA", "exposed C-D")
        )
        maca_exposed = (
            table.value("MACA", "exposed B-A") + table.value("MACA", "exposed C-D")
        )
        return {
            "hidden terminals: MACA total > 1.5x CSMA total": (
                maca_hidden > 1.5 * csma_hidden
            ),
            "hidden terminals: CSMA collapses (total < 25 pps)": csma_hidden < 25.0,
            "exposed terminals: MACA total exceeds CSMA total": (
                maca_exposed > 1.05 * csma_exposed
            ),
        }
