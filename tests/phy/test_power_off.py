"""Regression: a powered-off radio must go (and stay) silent.

``Medium._finish`` used to invoke ``on_transmit_complete`` on the sender
even after the sender had detached (powered off) mid-airtime.  For the
MACAW/MACA machines that callback re-entered the contention logic, so a
dead station kept drawing backoff slots and scheduling events until the
simulation horizon.  These tests pin the fix at both layers.
"""

from repro.core.config import RunProfile
from repro.topo.builder import ScenarioBuilder
from tests.phy.conftest import RecordingPort, data, make_ports


def test_detached_sender_gets_no_transmit_complete(sim, graph):
    a, b = make_ports(graph, "A", "B")
    graph.set_link(a, b)
    graph.transmit(a, data("A", "B"))
    # Power off mid-airtime: the frame keeps occupying the air (a real
    # radio's last frame does too) but the dead sender must not hear
    # about its completion.
    sim.at(graph.airtime(512) / 2, graph.detach, a)
    sim.run()
    assert a.completed == []
    assert b.clean_frames()  # the in-flight frame still arrived


def test_attached_sender_still_notified(sim, graph):
    a, b = make_ports(graph, "A", "B")
    graph.set_link(a, b)
    tx = graph.transmit(a, data("A", "B"))
    sim.run()
    assert a.completed == [tx]


def test_powered_off_station_stops_contending():
    for protocol in ("macaw", "maca"):
        builder = ScenarioBuilder(seed=5, protocol=protocol,
                                  profile=RunProfile(trace=True))
        builder.add_base("B")
        builder.add_pad("P")
        builder.clique("B", "P")
        builder.udp("P", "B", 64.0)  # always more work queued
        builder.power_off_at("P", 2.0)
        scenario = builder.build().run(10.0)
        after = [
            r for r in scenario.sim.trace.select(station="P")
            if r.time > 2.0 and r.category in ("send", "state")
        ]
        assert after == [], (
            f"{protocol}: dead station still active: "
            + "; ".join(f"t={r.time:.4f} {r.category} {r.detail}" for r in after[:5])
        )
