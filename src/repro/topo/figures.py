"""The paper's figure configurations (Figures 1–11), one builder each.

Every function returns a configured :class:`~repro.topo.builder.ScenarioBuilder`
(not yet built), so experiments can override the protocol, seed, or rates
before calling ``build()``.  Connectivity follows the figures' text exactly;
we use the graph medium because the paper specifies the multi-cell
configurations by who-hears-whom, not by coordinates.  Single-cell
configurations can alternatively be placed on the cube-grid medium via
``medium="grid"`` — stations are positioned geometrically with pads 6 feet
below the base station (§3: "all pads are 6 feet below the base station
height").

Stream rates default to the paper's workloads: 64 pps where the paper says
a stream can fully load the media, 32 pps where it says so, UDP except for
the Figure 11 office scenario (TCP).
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.phy.noise import PacketErrorModel
from repro.topo.builder import ScenarioBuilder

#: Height of ceiling-mounted base stations above pad height, feet (§3).
BASE_HEIGHT_FT = 6.0


def _builder(protocol: str, config: Optional[Any], seed: int,
             medium: str = "graph") -> ScenarioBuilder:
    return ScenarioBuilder(seed=seed, medium=medium, protocol=protocol,
                           config=config)


# --------------------------------------------------------------- Figure 1
def fig1_chain(protocol: str = "csma", config: Optional[Any] = None,
               seed: int = 0) -> ScenarioBuilder:
    """Figure 1's A—B—C chain plus a fourth station D heard only by C.

    A and C cannot hear each other (hidden terminals for receiver B);
    C is exposed to B's transmissions toward A; D gives C somewhere to
    send that B's activity should not block.
    """
    builder = _builder(protocol, config, seed)
    for name in ("A", "B", "C", "D"):
        builder.add_pad(name)
    builder.link("A", "B")
    builder.link("B", "C")
    builder.link("C", "D")
    return builder


def fig1_hidden_terminal(protocol: str = "csma", config: Optional[Any] = None,
                         seed: int = 0, rate_pps: float = 64.0) -> ScenarioBuilder:
    """Hidden-terminal workload: A→B and C→B collide at B under CSMA."""
    builder = fig1_chain(protocol, config, seed)
    builder.udp("A", "B", rate_pps)
    builder.udp("C", "B", rate_pps)
    return builder


def fig1_exposed_terminal(protocol: str = "csma", config: Optional[Any] = None,
                          seed: int = 0, rate_pps: float = 64.0) -> ScenarioBuilder:
    """Exposed-terminal workload: B→A should not block C→D."""
    builder = fig1_chain(protocol, config, seed)
    builder.udp("B", "A", rate_pps)
    builder.udp("C", "D", rate_pps)
    return builder


# --------------------------------------------------------------- Figure 2
def fig2_two_pads(protocol: str = "maca", config: Optional[Any] = None,
                  seed: int = 0, rate_pps: float = 64.0,
                  medium: str = "graph") -> ScenarioBuilder:
    """One cell, two pads each sending 64 pps UDP to the base (Table 1)."""
    builder = _builder(protocol, config, seed, medium=medium)
    if medium == "grid":
        builder.add_base("B", (10.5, 10.5, BASE_HEIGHT_FT + 0.5))
        builder.add_pad("P1", (7.5, 10.5, 0.5))
        builder.add_pad("P2", (13.5, 10.5, 0.5))
    else:
        builder.add_base("B")
        builder.add_pad("P1")
        builder.add_pad("P2")
        builder.clique("B", "P1", "P2")
    builder.udp("P1", "B", rate_pps)
    builder.udp("P2", "B", rate_pps)
    return builder


# --------------------------------------------------------------- Figure 3
def fig3_six_pads(protocol: str = "maca", config: Optional[Any] = None,
                  seed: int = 0, rate_pps: float = 32.0,
                  medium: str = "graph") -> ScenarioBuilder:
    """One cell, six pads each sending 32 pps UDP to the base (Table 2)."""
    builder = _builder(protocol, config, seed, medium=medium)
    names = [f"P{i}" for i in range(1, 7)]
    if medium == "grid":
        builder.add_base("B", (10.5, 10.5, BASE_HEIGHT_FT + 0.5))
        for i, name in enumerate(names):
            angle = 2 * math.pi * i / len(names)
            builder.add_pad(
                name,
                (10.5 + 4.0 * math.cos(angle), 10.5 + 4.0 * math.sin(angle), 0.5),
            )
    else:
        builder.add_base("B")
        for name in names:
            builder.add_pad(name)
        builder.clique("B", *names)
    for name in names:
        builder.udp(name, "B", rate_pps)
    return builder


# --------------------------------------------------------------- Figure 4
def fig4_mixed_directions(protocol: str = "maca", config: Optional[Any] = None,
                          seed: int = 0, rate_pps: float = 32.0) -> ScenarioBuilder:
    """One cell: B→P1, B→P2, P3→B at 32 pps UDP each (Table 3)."""
    builder = _builder(protocol, config, seed)
    builder.add_base("B")
    for name in ("P1", "P2", "P3"):
        builder.add_pad(name)
    builder.clique("B", "P1", "P2", "P3")
    builder.udp("B", "P1", rate_pps)
    builder.udp("B", "P2", rate_pps)
    builder.udp("P3", "B", rate_pps)
    return builder


# ------------------------------------------------- single TCP stream (T4/T9)
def single_stream_cell(protocol: str = "macaw", config: Optional[Any] = None,
                       seed: int = 0, rate_pps: float = 64.0,
                       transport: str = "udp",
                       error_rate: float = 0.0) -> ScenarioBuilder:
    """One pad, one base station, one saturating stream (Tables 4 and 9)."""
    builder = _builder(protocol, config, seed)
    builder.add_base("B")
    builder.add_pad("P")
    builder.clique("B", "P")
    if transport == "udp":
        builder.udp("P", "B", rate_pps)
    elif transport == "tcp":
        builder.tcp("P", "B", rate_pps)
    else:
        raise ValueError(f"unknown transport {transport!r}")
    if error_rate > 0.0:
        builder.noise(PacketErrorModel(error_rate))
    return builder


# --------------------------------------------------------------- Figure 5
def fig5_exposed_pads(protocol: str = "macaw", config: Optional[Any] = None,
                      seed: int = 0, rate_pps: float = 64.0) -> ScenarioBuilder:
    """Two cells, pads in mutual range, both sending to their own base
    (Table 5: the DS experiment)."""
    builder = _builder(protocol, config, seed)
    builder.add_base("B1")
    builder.add_base("B2")
    builder.add_pad("P1")
    builder.add_pad("P2")
    builder.link("P1", "B1")
    builder.link("P2", "B2")
    builder.link("P1", "P2")
    builder.udp("P1", "B1", rate_pps)
    builder.udp("P2", "B2", rate_pps)
    return builder


# --------------------------------------------------------------- Figure 6
def fig6_reversed_flows(protocol: str = "macaw", config: Optional[Any] = None,
                        seed: int = 0, rate_pps: float = 64.0) -> ScenarioBuilder:
    """Figure 5's topology with both flows reversed: base→pad in each cell
    (Table 6: the RRTS experiment)."""
    builder = _builder(protocol, config, seed)
    builder.add_base("B1")
    builder.add_base("B2")
    builder.add_pad("P1")
    builder.add_pad("P2")
    builder.link("P1", "B1")
    builder.link("P2", "B2")
    builder.link("P1", "P2")
    builder.udp("B1", "P1", rate_pps)
    builder.udp("B2", "P2", rate_pps)
    return builder


# --------------------------------------------------------------- Figure 7
def fig7_unsolved(protocol: str = "macaw", config: Optional[Any] = None,
                  seed: int = 0, rate_pps: float = 64.0) -> ScenarioBuilder:
    """B1→P1 versus P2→B2 where P1 hears P2's data: P1 never receives B1's
    RTS cleanly, so even RRTS cannot help (Table 7, the open problem)."""
    builder = _builder(protocol, config, seed)
    builder.add_base("B1")
    builder.add_base("B2")
    builder.add_pad("P1")
    builder.add_pad("P2")
    builder.link("P1", "B1")
    builder.link("P2", "B2")
    builder.link("P1", "P2")
    builder.udp("B1", "P1", rate_pps)
    builder.udp("P2", "B2", rate_pps)
    return builder


# --------------------------------------------------------------- Figure 8
def fig8_leakage(protocol: str = "macaw", config: Optional[Any] = None,
                 seed: int = 0, rate_pps: float = 64.0) -> ScenarioBuilder:
    """Two adjoining cells with border pads in mutual range: backoff values
    "leak" between regions of very different congestion (§3.4)."""
    builder = _builder(protocol, config, seed)
    builder.add_base("B1")
    builder.add_base("B2")
    border = [f"P{i}" for i in range(1, 5)]  # C1 pads, all near the border
    for name in border:
        builder.add_pad(name)
        builder.link(name, "B1")
    builder.add_pad("P5")  # C2 pad near the border
    builder.add_pad("P6")  # C2 pad away from the border
    builder.link("P5", "B2")
    builder.link("P6", "B2")
    builder.clique(*border, "P5")  # border pads overhear each other
    for name in border + ["P5", "P6"]:
        base = "B1" if name in border else "B2"
        builder.udp(name, base, rate_pps)
    return builder


# --------------------------------------------------------------- Figure 9
def fig9_dead_pad(protocol: str = "macaw", config: Optional[Any] = None,
                  seed: int = 0, rate_pps: float = 32.0,
                  power_off_at: float = 100.0) -> ScenarioBuilder:
    """One cell, three pads with bidirectional streams; P1 is switched off
    mid-run while the base keeps trying to reach it (Table 8)."""
    builder = _builder(protocol, config, seed)
    builder.add_base("B1")
    for name in ("P1", "P2", "P3"):
        builder.add_pad(name)
    builder.clique("B1", "P1", "P2", "P3")
    for name in ("P1", "P2", "P3"):
        builder.udp("B1", name, rate_pps)
        builder.udp(name, "B1", rate_pps)
    builder.power_off_at("P1", power_off_at)
    return builder


# -------------------------------------------------------------- Figure 10
def fig10_three_cells(protocol: str = "macaw", config: Optional[Any] = None,
                      seed: int = 0, rate_pps: float = 32.0) -> ScenarioBuilder:
    """Three cells (§3.5): C1 holds P1–P4 near the C2 border, C2 holds P5
    near that border, P6 straddles the C2/C3 border and sends to B3.

    P1–P5 overhear each other but "can only hear their own base station";
    each of P1–P5 runs UDP streams to *and from* its base; P6→B3 only.
    """
    builder = _builder(protocol, config, seed)
    for base in ("B1", "B2", "B3"):
        builder.add_base(base)
    c1_pads = [f"P{i}" for i in range(1, 5)]
    for name in c1_pads:
        builder.add_pad(name)
        builder.link(name, "B1")
    builder.add_pad("P5")
    builder.link("P5", "B2")
    builder.add_pad("P6")
    builder.link("P6", "B2")
    builder.link("P6", "B3")
    builder.clique(*c1_pads, "P5")
    for name in c1_pads:
        builder.udp(name, "B1", rate_pps)
        builder.udp("B1", name, rate_pps)
    builder.udp("P5", "B2", rate_pps)
    builder.udp("B2", "P5", rate_pps)
    builder.udp("P6", "B3", rate_pps)
    return builder


# -------------------------------------------------------------- Figure 11
def fig11_office(protocol: str = "macaw", config: Optional[Any] = None,
                 seed: int = 0, rate_pps: float = 32.0,
                 noise_error_rate: float = 0.01,
                 p7_arrival_s: float = 300.0) -> ScenarioBuilder:
    """The PARC office-floor scenario (§3.5, Table 11).

    Four cells: the open area C1 (pads P1–P4 plus whiteboard noise at
    packet error rate 0.01), offices C2 (P6) and C3 (P5), and the coffee
    room C4 which P7 enters at t = 300 s.  All streams are 32 pps TCP from
    pad to base.  Extra connectivity from the paper: P7 hears P1 and P3;
    P4, P5 and P6 hear each other.
    """
    builder = _builder(protocol, config, seed)
    for base in ("B1", "B2", "B3", "B4"):
        builder.add_base(base)
    c1_pads = [f"P{i}" for i in range(1, 5)]
    for name in c1_pads:
        builder.add_pad(name)
        builder.link(name, "B1")
    builder.clique(*c1_pads)  # pads of one cell hear each other
    builder.add_pad("P6")
    builder.link("P6", "B2")
    builder.add_pad("P5")
    builder.link("P5", "B3")
    builder.link("P4", "P5")
    builder.link("P4", "P6")
    builder.link("P5", "P6")
    builder.add_pad("P7")

    for name in c1_pads:
        builder.tcp(name, "B1", rate_pps)
    builder.tcp("P5", "B3", rate_pps)
    builder.tcp("P6", "B2", rate_pps)
    builder.tcp("P7", "B4", rate_pps, start=p7_arrival_s)

    # Whiteboard noise corrupts receptions at C1 stations.
    builder.noise(PacketErrorModel(noise_error_rate,
                                   receivers=["B1"] + c1_pads))

    def bring_in_p7(scenario: Any) -> None:
        medium = scenario.medium
        stations = scenario.stations
        medium.set_link(stations["P7"].mac, stations["B4"].mac, True)
        medium.set_link(stations["P7"].mac, stations["P1"].mac, True)
        medium.set_link(stations["P7"].mac, stations["P3"].mac, True)

    builder.at(p7_arrival_s, bring_in_p7)
    return builder
