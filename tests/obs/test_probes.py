"""Scenario instrumentation: probe catalogue wiring and dump format."""

import json

import pytest

from repro.obs.probes import instrument_scenario
from repro.obs.runtime import MetricsConfig
from repro.topo.builder import ScenarioBuilder


def contended_builder(seed=3, protocol="macaw"):
    builder = ScenarioBuilder(seed=seed, protocol=protocol)
    builder.add_base("B")
    builder.add_pad("P1")
    builder.add_pad("P2")
    builder.clique("B", "P1", "P2")
    builder.udp("P1", "B", 48.0)
    builder.udp("P2", "B", 48.0)
    return builder


def instrumented_run(duration=20.0, interval=1.0, **kwargs):
    scenario = contended_builder(**kwargs).build()
    metrics = instrument_scenario(scenario, MetricsConfig(interval=interval))
    scenario.run(duration)
    return scenario, metrics


def test_per_station_mac_series_present():
    _, metrics = instrumented_run()
    for station in ("B", "P1", "P2"):
        for name in ("mac.backoff", "mac.queue", "mac.retries"):
            times, values = metrics.series(name, station=station)
            assert len(times) == 21, (name, station)
            assert all(v >= 0 for v in values)


def test_backoff_series_moves_under_contention():
    _, metrics = instrumented_run(duration=40.0)
    seen = set()
    for station in ("B", "P1", "P2"):
        _, values = metrics.series("mac.backoff", station=station)
        seen.update(values)
    # A saturated cell must push someone off the MILD floor at least once
    # (the senders often ride the floor — successes decrement to bo_min —
    # but the receiver's RRTS contention shows real excursions).
    assert len(seen) > 1


def test_channel_busy_fraction_is_a_fraction():
    scenario, metrics = instrumented_run(duration=30.0)
    times, values = metrics.series("chan.busy_frac")
    assert all(0.0 <= v <= 1.0 for v in values)
    # A saturated cell keeps the medium visibly busy by the end.
    assert values[-1] > 0.1
    medium = scenario.medium
    assert medium.busy_seconds() <= scenario.sim.now


def test_dwell_counters_cover_observed_states():
    _, metrics = instrumented_run(duration=30.0)
    dwell = [
        inst for inst in metrics.registry.scalars()
        if inst.name == "mac.dwell_s"
    ]
    states = {inst.label_dict()["state"] for inst in dwell}
    assert "IDLE" in states
    assert len(states) >= 3  # contention visits more than idle/transmit
    total = sum(inst.read() for inst in dwell if
                inst.label_dict()["station"] == "P1")
    assert total <= 30.0 + 1e-6


def test_stream_delivery_counters_and_delay_histogram():
    scenario, metrics = instrumented_run(duration=30.0)
    streams = scenario.recorder.streams()
    assert streams
    stream = streams[0]
    _, delivered = metrics.series("net.delivered", stream=stream)
    assert delivered[-1] > 0
    _, offered = metrics.series("net.offered", stream=stream)
    assert offered[-1] >= delivered[-1]
    hists = [h for h in metrics.registry.histograms()
             if h.name == "net.delay_s" and h.label_dict()["stream"] == stream]
    assert len(hists) == 1
    assert hists[0].count == delivered[-1]


def test_dump_is_json_serializable_with_schema():
    _, metrics = instrumented_run(duration=10.0)
    dump = metrics.dump()
    blob = json.dumps(dump)  # must not raise
    parsed = json.loads(blob)
    assert parsed["schema"] == 1
    assert parsed["interval"] == 1.0
    assert parsed["t_end"] == 10.0
    assert parsed["stations"] == {"B": "macaw", "P1": "macaw", "P2": "macaw"}
    assert parsed["series"], "dump carries at least one series"
    record = parsed["series"][0]
    assert set(record) == {"name", "labels", "kind", "t", "v", "dropped"}
    assert len(record["t"]) == len(record["v"])
    assert parsed["histograms"]
    hist = parsed["histograms"][0]
    assert len(hist["counts"]) == len(hist["bounds"]) + 1  # +inf overflow


def test_instrumentation_is_determinism_neutral_for_maca_too():
    def digest(metrics_on):
        builder = contended_builder(seed=9, protocol="maca")
        builder.profile = builder.profile.but(trace=True)
        scenario = builder.build()
        if metrics_on:
            instrument_scenario(scenario, MetricsConfig(interval=0.5))
        scenario.run(12.0)
        return scenario.sim.trace.digest(), scenario.sim.events_fired

    assert digest(False) == digest(True)


def test_builder_metrics_opt_in_and_config_validation():
    builder = contended_builder()
    builder.profile = builder.profile.but(metrics=2.0)
    scenario = builder.build()
    assert scenario.metrics is not None
    assert scenario.metrics.config.interval == 2.0
    with pytest.raises(ValueError):
        MetricsConfig(interval=-1.0)
    with pytest.raises(ValueError):
        MetricsConfig(capacity=0)
