"""Determinism regression: one seed must reproduce the trace byte for byte."""

from repro.core.config import RunProfile
from repro.topo.builder import ScenarioBuilder


def traced_builder(protocol, seed):
    builder = ScenarioBuilder(seed=seed, protocol=protocol,
                              profile=RunProfile(trace=True))
    builder.add_base("B")
    builder.add_pad("P1")
    builder.add_pad("P2")
    builder.clique("B", "P1", "P2")
    builder.udp("P1", "B", 48.0)
    builder.udp("P2", "B", 48.0)
    return builder


def run_digest(protocol, seed):
    scenario = traced_builder(protocol, seed).build().run(8.0)
    return scenario.sim.trace.digest()


def test_macaw_trace_digest_is_seed_deterministic():
    assert run_digest("macaw", seed=7) == run_digest("macaw", seed=7)


def test_maca_trace_digest_is_seed_deterministic():
    assert run_digest("maca", seed=7) == run_digest("maca", seed=7)


def test_different_seeds_diverge():
    # Sanity check that the digest actually covers the interesting bits:
    # contention slots are random, so two seeds must produce different runs.
    assert run_digest("macaw", seed=1) != run_digest("macaw", seed=2)


def test_digest_is_order_and_detail_sensitive():
    from repro.sim.trace import Trace

    a, b = Trace(), Trace()
    a.record(1.0, "send", "A", kind="RTS")
    b.record(1.0, "send", "A", kind="CTS")
    assert a.digest() != b.digest()
    c = Trace()
    c.record(1.0, "send", "A", kind="RTS")
    assert a.digest() == c.digest()
