"""Metrics instrumentation must be invisible to the event stream.

The observability contract (DESIGN.md §8): a run with probes attached
fires the same events in the same order, draws the same random numbers
and produces byte-identical traces as a run without.  These tests pin
that with the strongest fingerprints the simulator has — ``Trace.digest``
and ``events_fired``.
"""

from repro.core.config import RunProfile
from repro.topo.builder import ScenarioBuilder


def traced_builder(protocol, seed, metrics):
    builder = ScenarioBuilder(seed=seed, protocol=protocol,
                              profile=RunProfile(trace=True, metrics=metrics))
    builder.add_base("B")
    builder.add_pad("P1")
    builder.add_pad("P2")
    builder.add_pad("P3")
    builder.clique("B", "P1", "P2", "P3")
    builder.udp("P1", "B", 48.0)
    builder.udp("P2", "B", 48.0)
    builder.udp("P3", "B", 24.0)
    return builder


def fingerprint(protocol, seed, metrics):
    scenario = traced_builder(protocol, seed, metrics).build().run(15.0)
    return scenario.sim.trace.digest(), scenario.sim.events_fired


def test_macaw_metrics_on_off_identical_digest_and_event_count():
    off = fingerprint("macaw", seed=7, metrics=False)
    on = fingerprint("macaw", seed=7, metrics=0.5)
    assert off == on


def test_maca_metrics_on_off_identical_digest_and_event_count():
    off = fingerprint("maca", seed=7, metrics=False)
    on = fingerprint("maca", seed=7, metrics=0.5)
    assert off == on


def test_csma_metrics_on_off_identical_digest_and_event_count():
    off = fingerprint("csma", seed=7, metrics=False)
    on = fingerprint("csma", seed=7, metrics=0.5)
    assert off == on


def test_sampling_cadence_does_not_perturb_the_run_either():
    coarse = fingerprint("macaw", seed=11, metrics=5.0)
    fine = fingerprint("macaw", seed=11, metrics=0.05)
    assert coarse == fine


def test_instrumented_run_still_collects_series():
    scenario = traced_builder("macaw", seed=7, metrics=0.5).build().run(15.0)
    assert scenario.metrics is not None
    times, _ = scenario.metrics.series("mac.queue", station="P1")
    assert len(times) == 31  # baseline + 30 deadlines at 0.5 s
