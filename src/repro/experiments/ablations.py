"""Ablation experiments beyond the paper's tables.

DESIGN.md calls out design choices the paper leaves open; each ablation
quantifies one of them:

* :class:`MildFactorAblation` — §3.1 picks 1.5 as MILD's multiplicative
  increase without justification; sweep it.
* :class:`RtsDeferAblation` — §3.3.2's overheard-RTS defer (until the CTS
  slot passes) versus Appendix B's literal rule (defer the whole exchange).
* :class:`CopyingAblation` — how much of MACAW's fairness comes from the
  copying scheme alone.
* :class:`MulticastAblation` — §3.3.4's RTS-DATA multicast and its admitted
  CSMA-like flaw: stations in range of a receiver but not the sender get
  no signal to defer.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.metrics import jain_fairness
from repro.analysis.tables import ComparisonTable
from repro.core.config import maca_config, macaw_config
from repro.experiments.base import Experiment, ExperimentSpec
from repro.mac.frames import MULTICAST
from repro.net.packets import DATA_PACKET_BYTES, NetPacket
from repro.topo.builder import ScenarioBuilder
from repro.topo.figures import fig3_six_pads, fig5_exposed_pads

MILD_FACTORS: List[float] = [1.25, 1.5, 2.0, 3.0]


class MildFactorAblation(Experiment):
    """Sweep MILD's multiplicative-increase factor on the six-pad cell."""

    spec = ExperimentSpec(
        exp_id="ablation-mild-factor",
        title="Ablation: MILD increase factor (paper uses 1.5)",
        figure="fig3",
        description=(
            "Six saturated pads; sweep F_inc's factor. Small factors react "
            "too slowly to contention, large ones overshoot; 1.5 should sit "
            "in the efficient region."
        ),
    )
    default_duration = 300.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        # The factor lives on the algorithm object, so configure through a
        # custom BackoffBook after building each scenario.
        from repro.core.backoff import MildBackoff

        table = ComparisonTable(self.spec.title)
        for factor in MILD_FACTORS:
            config = maca_config(copy_backoff=True, backoff="mild")
            scenario = fig3_six_pads(config=config, seed=seed).build()
            for i in range(1, 7):
                mac = scenario.station(f"P{i}").mac
                mac.backoff.algorithm = MildBackoff(
                    config.bo_min, config.bo_max, factor=factor
                )
            scenario.run(duration)
            variant = f"factor={factor:g}"
            throughput = scenario.throughputs(warmup=warmup)
            table.add(variant, "total", sum(throughput.values()))
            table.add(variant, "jain", jain_fairness(list(throughput.values())))
            del scenario, mac  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        totals = {v: table.value(v, "total") for v in table.variants()}
        fairness = {v: table.value(v, "jain") for v in table.variants()}
        return {
            "every factor stays fair (Jain > 0.95)": all(
                f > 0.95 for f in fairness.values()
            ),
            "paper's 1.5 within 15% of the best factor": (
                totals["factor=1.5"] > 0.85 * max(totals.values())
            ),
        }


class RtsDeferAblation(Experiment):
    """§3.3.2 semantics vs the Appendix-B-literal overheard-RTS defer."""

    spec = ExperimentSpec(
        exp_id="ablation-rts-defer",
        title="Ablation: overheard-RTS defer span (CTS-slot vs full exchange)",
        figure="fig5",
        description=(
            "Exposed-terminal cell pair under full MACAW with the two "
            "readings of defer rule 1. The full-exchange defer wastes the "
            "whole data period whenever an overheard RTS loses its own "
            "contention."
        ),
    )
    default_duration = 300.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        variants = {
            "CTS-slot defer": macaw_config(use_rrts=False, per_destination=False),
            "full-exchange defer": macaw_config(
                use_rrts=False, per_destination=False, rts_defer_full_exchange=True
            ),
        }
        for name, config in variants.items():
            scenario = fig5_exposed_pads(config=config, seed=seed).build().run(duration)
            for stream, pps in scenario.throughputs(warmup=warmup).items():
                table.add(name, stream, pps)
            del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        short = [table.value("CTS-slot defer", s) for s in ("P1-B1", "P2-B2")]
        longd = [table.value("full-exchange defer", s) for s in ("P1-B1", "P2-B2")]
        return {
            "both defer policies share fairly (within 35%)": (
                min(short) > 0 and max(short) / min(short) < 1.35
                and min(longd) > 0 and max(longd) / min(longd) < 1.35
            ),
            "CTS-slot defer at least as efficient": sum(short) >= 0.95 * sum(longd),
        }


class CopyingAblation(Experiment):
    """Copying on/off under MILD — fairness contribution of copying alone."""

    spec = ExperimentSpec(
        exp_id="ablation-copying",
        title="Ablation: backoff copying under MILD, six pads",
        figure="fig3",
        description=(
            "Copying is the collective-learning half of §3.1. Without it, "
            "MILD still converges slowly and unevenly; with it, all six "
            "pads share one congestion estimate."
        ),
    )
    default_duration = 300.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        variants = {
            "no copy": maca_config(backoff="mild"),
            "copy": maca_config(backoff="mild", copy_backoff=True),
        }
        for name, config in variants.items():
            scenario = fig3_six_pads(config=config, seed=seed).build().run(duration)
            throughput = scenario.throughputs(warmup=warmup)
            for stream, pps in throughput.items():
                table.add(name, stream, pps)
            table.add(name, "jain", jain_fairness(list(throughput.values())))
            del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        return {
            "copying is at least as fair as not copying": (
                table.value("copy", "jain") >= table.value("no copy", "jain") - 0.02
            ),
            "copying is highly fair (Jain > 0.97)": table.value("copy", "jain") > 0.97,
        }


class PollingAblation(Experiment):
    """§4's deferred alternative: a polling MAC versus MACAW.

    "Various token-based schemes, or those involving polling or
    reservations, are possibilities we hope to explore in future work."
    We explore the simplest: the base polls its pads round-robin, no
    contention at all.  Three measurements:

    * the six-pad cell (Figure 3) — polling's best case: no contention
      losses, perfect fairness;
    * the two-cell exposed pair (Figure 5) — uncoordinated cells' polls
      and answers collide at border pads;
    * a pad that arrives mid-run — polling serves nobody it has not
      registered, while multiple access serves newcomers immediately
      (§2.1's argument for multiple access).
    """

    spec = ExperimentSpec(
        exp_id="ablation-polling",
        title="Ablation: polling MAC vs MACAW (the §4 road not taken)",
        figure="fig3",
        description=(
            "Round-robin polling wins a single isolated cell on both "
            "efficiency and fairness, but offers newcomers nothing until "
            "re-registration — the robustness/mobility trade §2.1 cites."
        ),
    )
    default_duration = 300.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        from repro.topo.builder import ScenarioBuilder

        table = ComparisonTable(self.spec.title)
        for name, protocol in (("polling", "polling"), ("MACAW", "macaw")):
            cell = fig3_six_pads(protocol=protocol, seed=seed, rate_pps=64.0)
            scenario = cell.build().run(duration)
            throughput = scenario.throughputs(warmup=warmup)
            table.add(name, "six-pad cell total", sum(throughput.values()))
            table.add(name, "six-pad cell jain", jain_fairness(list(throughput.values())))
            del scenario

            pair = fig5_exposed_pads(protocol=protocol, seed=seed)
            scenario = pair.build().run(duration)
            table.add(name, "two-cell border total",
                      sum(scenario.throughputs(warmup=warmup).values()))
            del scenario

            builder = ScenarioBuilder(seed=seed, protocol=protocol)
            builder.add_base("B")
            builder.add_pad("P1")
            builder.clique("B", "P1")
            builder.add_pad("P2")  # arrives later, never pre-registered
            builder.udp("P1", "B", 32.0)
            builder.udp("P2", "B", 32.0, start=duration / 3)

            def arrive(scenario: Any) -> None:
                medium = scenario.medium
                medium.set_link(scenario.stations["P2"].mac,
                                scenario.stations["B"].mac, True)
                medium.set_link(scenario.stations["P2"].mac,
                                scenario.stations["P1"].mac, True)

            builder.at(duration / 3, arrive)
            scenario = builder.build().run(duration)
            newcomer = scenario.recorder.throughput_pps(
                "P2-B", duration / 3 + 5.0, duration
            )
            table.add(name, "newcomer pad", newcomer)
            del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        return {
            "polling beats MACAW in the isolated cell": (
                table.value("polling", "six-pad cell total")
                > table.value("MACAW", "six-pad cell total")
            ),
            "polling is perfectly fair in the cell (Jain > 0.999)": (
                table.value("polling", "six-pad cell jain") > 0.999
            ),
            "polling strands the unregistered newcomer (0 pps)": (
                table.value("polling", "newcomer pad") == 0.0
            ),
            "MACAW serves the newcomer immediately (> 20 pps)": (
                table.value("MACAW", "newcomer pad") > 20.0
            ),
        }


class AckVariantsAblation(Experiment):
    """§4's acknowledgement alternatives: immediate ACK, piggyback, NACK.

    The paper proposes but does not test two cheaper acknowledgment
    schemes: piggybacking ACKs on subsequent CTS frames (skip the ACK while
    more packets are queued) and NACKs (silence is success; a receiver
    whose CTS drew no data complains).  We run the paper's own Table 4
    methodology — a saturated TCP stream at several packet error rates —
    over all four schemes.
    """

    spec = ExperimentSpec(
        exp_id="ablation-ack-variants",
        title="Ablation: ACK vs piggyback vs NACK vs none (TCP under noise)",
        figure="",
        description=(
            "Table 4's workload over §4's acknowledgement design space. "
            "Piggybacking keeps ACK-grade robustness at near-zero overhead "
            "for saturated streams; NACK is cheap but best-effort."
        ),
    )
    default_duration = 300.0

    VARIANTS = {
        "no ACK": dict(use_ack=False),
        "immediate ACK": dict(use_ack=True),
        "piggyback ACK": dict(use_ack=True, ack_variant="piggyback"),
        "NACK": dict(use_ack=False, use_nack=True),
    }
    ERROR_RATES = [0.0, 0.01, 0.1]

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        for name, flags in self.VARIANTS.items():
            config = macaw_config(use_ds=False, use_rrts=False, **flags)
            for rate in self.ERROR_RATES:
                scenario = (
                    fig_single_tcp(config, seed, rate).build().run(duration)
                )
                table.add(name, f"PER={rate:g}",
                          scenario.throughput("P-B", warmup=warmup))
                del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        def v(variant, row):
            return table.value(variant, row)

        return {
            "no noise: piggyback is cheaper than immediate ACK": (
                v("piggyback ACK", "PER=0") >= v("immediate ACK", "PER=0")
            ),
            "PER=0.1: every acknowledging scheme beats none": all(
                v(name, "PER=0.1") > 2 * max(v("no ACK", "PER=0.1"), 0.05)
                for name in ("immediate ACK", "piggyback ACK", "NACK")
            ),
            "PER=0.1: piggyback within 40% of immediate ACK": (
                v("piggyback ACK", "PER=0.1") > 0.6 * v("immediate ACK", "PER=0.1")
            ),
        }


def fig_single_tcp(config, seed, error_rate):
    """Table 4's cell: one saturated TCP stream plus optional noise."""
    from repro.topo.figures import single_stream_cell

    return single_stream_cell(
        config=config, seed=seed, transport="tcp", error_rate=error_rate
    )


class CarrierSenseAblation(Experiment):
    """§3.3.2's carrier-sense alternative to the DS packet.

    "One can use carrier-sense to avoid sending useless RTS's ... This is
    essentially the CSMA/CA protocol.  We chose a slightly different
    approach, which does not require carrier sensing hardware."  We run
    Figure 5's exposed-terminal pair three ways: neither mechanism, the DS
    packet, and carrier sense.
    """

    spec = ExperimentSpec(
        exp_id="ablation-carrier-sense",
        title="Ablation: DS packet vs carrier sense for exposed terminals",
        figure="fig5",
        description=(
            "Figure 5's cell pair under (a) neither synchronization "
            "mechanism, (b) the DS packet, (c) CSMA/CA-style carrier "
            "sensing. Both mechanisms should rescue the exposed terminals."
        ),
    )
    default_duration = 300.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        variants = {
            "neither": macaw_config(use_ds=False, use_rrts=False,
                                    per_destination=False),
            "DS packet": macaw_config(use_rrts=False, per_destination=False),
            "carrier sense": macaw_config(use_ds=False, use_rrts=False,
                                          per_destination=False,
                                          carrier_sense=True),
        }
        for name, config in variants.items():
            scenario = fig5_exposed_pads(config=config, seed=seed).build().run(duration)
            for stream, pps in scenario.throughputs(warmup=warmup).items():
                table.add(name, stream, pps)
            del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        def total(variant):
            return sum(table.value(variant, s) for s in ("P1-B1", "P2-B2"))

        return {
            "DS rescues the pair (> 1.3x neither)": total("DS packet") > 1.3 * total("neither"),
            "carrier sense rescues the pair (> 1.3x neither)": (
                total("carrier sense") > 1.3 * total("neither")
            ),
            "the two mechanisms land within 25% of each other": (
                0.75 < total("carrier sense") / total("DS packet") < 1.33
            ),
        }


class FailureDetectionAblation(Experiment):
    """How fast a sender declares its RTS failed decides who wins §3.1.

    With the physical-minimum timeout (~3 slots) failed attempts are cheap
    and heavily overlapped, so BEB's reset-to-minimum contention wars cost
    little and BEB outperforms MILD — inverting Table 2.  Slower detection
    (the 8-slot default, and 16 slots) makes each war round expensive,
    which is the regime the paper's numbers imply.
    """

    spec = ExperimentSpec(
        exp_id="ablation-failure-detection",
        title="Ablation: failure-detection latency vs backoff algorithm",
        figure="fig3",
        description=(
            "Sweep the WFCTS timeout (3/8/16 slots) for BEB+copy and "
            "MILD+copy on the six-pad cell. MILD's advantage grows with "
            "detection latency; BEB's war cost is the product of rounds "
            "fought and the price of each."
        ),
    )
    default_duration = 250.0

    TIMEOUTS = [None, 8.0, 16.0]

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        for timeout in self.TIMEOUTS:
            label = "3 (min)" if timeout is None else f"{timeout:g}"
            for name, backoff in (("BEB", "beb"), ("MILD", "mild")):
                config = maca_config(
                    copy_backoff=True, backoff=backoff, cts_timeout_slots=timeout
                )
                scenario = fig3_six_pads(config=config, seed=seed).build().run(duration)
                total = sum(scenario.throughputs(warmup=warmup).values())
                table.add(name, f"timeout={label} slots", total)
                del scenario  # frees its trace before the next variant is built
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        beb = {row: table.value("BEB", row) for row in table.stream_order}
        mild = {row: table.value("MILD", row) for row in table.stream_order}
        slow = "timeout=16 slots"
        fast = "timeout=3 (min) slots"
        return {
            "MILD beats BEB at slow failure detection": mild[slow] > beb[slow],
            "BEB's loss from slow detection exceeds MILD's": (
                (beb[fast] - beb[slow]) > (mild[fast] - mild[slow])
            ),
        }


class MulticastAblation(Experiment):
    """§3.3.4's RTS-DATA multicast, including its admitted flaw.

    Sender S multicasts in cell 1.  Receiver R is also in range of pad X
    (cell 2), which cannot hear S.  X's uplink transmissions collide with
    the multicast DATA at R — the CSMA-like flaw the paper concedes: only
    stations within range of the *sender* defer.
    """

    spec = ExperimentSpec(
        exp_id="ablation-multicast",
        title="Ablation: multicast RTS-DATA and its hidden-interferer flaw",
        figure="",
        description=(
            "Multicast delivery is reliable among stations that hear the "
            "sender, but a hidden interferer near one receiver destroys its "
            "copies — no CTS means no receiver-side protection."
        ),
    )
    default_duration = 200.0

    def _run(self, seed: int, duration: float, warmup: float) -> ComparisonTable:
        table = ComparisonTable(self.spec.title)
        for name, with_interferer in (("quiet", False), ("hidden interferer", True)):
            builder = ScenarioBuilder(seed=seed, protocol="macaw", config=macaw_config())
            builder.add_base("S")
            builder.add_pad("R1")
            builder.add_pad("R2")
            builder.link("S", "R1")
            builder.link("S", "R2")
            if with_interferer:
                builder.add_pad("X")
                builder.add_base("B2")
                builder.link("X", "B2")
                builder.link("X", "R2")  # X can clobber R2 but not R1
                builder.udp("X", "B2", 64.0)
            scenario = builder.build()

            sent = {"count": 0}

            def emit(index: int, scenario=scenario, sent=sent) -> None:
                packet = NetPacket(
                    stream="S-mcast", kind="udp", seq=index,
                    size_bytes=DATA_PACKET_BYTES, created=scenario.sim.now,
                )
                sent["count"] += 1
                scenario.station("S").mac.enqueue(packet, MULTICAST, DATA_PACKET_BYTES)

            from repro.net.traffic import CbrSource

            CbrSource(scenario.sim, emit, rate_pps=32.0, name=f"mcast-{name}")
            scenario.run(duration)
            for receiver in ("R1", "R2"):
                delivered = scenario.station(receiver).mac.stats.delivered
                # stats count all deliveries including warm-up; good enough
                # for the qualitative contrast.
                table.add(name, f"delivered at {receiver}", delivered / duration)
            del scenario, emit  # emit's default holds the scenario too
        return table

    def _check(self, table: ComparisonTable) -> Dict[str, bool]:
        quiet_r2 = table.value("quiet", "delivered at R2")
        noisy_r2 = table.value("hidden interferer", "delivered at R2")
        noisy_r1 = table.value("hidden interferer", "delivered at R1")
        return {
            "quiet cell: multicast delivers (> 25 pps at R2)": quiet_r2 > 25.0,
            "hidden interferer destroys R2's copies (< 60% of R1's)": (
                noisy_r2 < 0.6 * max(noisy_r1, 0.001)
            ),
            "R1 (away from interferer) still receives (> 20 pps)": noisy_r1 > 20.0,
        }
