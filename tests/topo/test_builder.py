"""ScenarioBuilder: construction, wiring, events."""

from contextlib import ExitStack

import pytest

from repro.core.config import RunProfile, macaw_config
from repro.core.macaw import MacawMac
from repro.mac.csma import CsmaMac
from repro.mac.maca import MacaMac
from repro.mac.timing import MacTiming
from repro.phy.graph_medium import GraphMedium
from repro.phy.grid_medium import GridMedium
from repro.phy.noise import PacketErrorModel
from repro.topo.builder import ScenarioBuilder, capturing


def two_station_builder(**kwargs):
    builder = ScenarioBuilder(seed=1, **kwargs)
    builder.add_base("B")
    builder.add_pad("P")
    if kwargs.get("medium", "graph") == "graph":
        builder.clique("B", "P")
    builder.udp("P", "B", 32.0)
    return builder


def test_build_and_run_round_trip():
    scenario = two_station_builder().build().run(10.0)
    assert scenario.throughput("P-B", warmup=2.0) > 25.0


def test_throughput_requires_run():
    scenario = two_station_builder().build()
    with pytest.raises(RuntimeError):
        scenario.throughput("P-B")


def test_protocol_selection():
    for protocol, cls in (("macaw", MacawMac), ("maca", MacaMac), ("csma", CsmaMac)):
        builder = ScenarioBuilder(seed=1, protocol=protocol)
        builder.add_pad("P")
        scenario = builder.build()
        assert isinstance(scenario.station("P").mac, cls)


def test_per_station_protocol_override():
    builder = ScenarioBuilder(seed=1, protocol="macaw")
    builder.add_pad("P", protocol="csma")
    builder.add_pad("Q")
    scenario = builder.build()
    assert isinstance(scenario.station("P").mac, CsmaMac)
    assert isinstance(scenario.station("Q").mac, MacawMac)


def test_config_flows_to_macs():
    builder = ScenarioBuilder(seed=1, protocol="macaw", config=macaw_config(use_ds=False))
    builder.add_pad("P")
    scenario = builder.build()
    assert scenario.station("P").mac.config.use_ds is False


def test_duplicate_station_rejected():
    builder = ScenarioBuilder()
    builder.add_pad("P")
    with pytest.raises(ValueError):
        builder.add_pad("P")


def test_unknown_protocol_rejected():
    builder = ScenarioBuilder(protocol="tdma")
    builder.add_pad("P")
    with pytest.raises(ValueError):
        builder.build()


def test_medium_kinds():
    assert isinstance(two_station_builder().build().medium, GraphMedium)
    builder = ScenarioBuilder(seed=1, medium="grid")
    builder.add_pad("P", (0.5, 0.5, 0.5))
    assert isinstance(builder.build().medium, GridMedium)
    with pytest.raises(ValueError):
        ScenarioBuilder(medium="fluid")


def test_links_require_graph_medium():
    builder = ScenarioBuilder(seed=1, medium="grid")
    builder.add_pad("A", (0.5, 0.5, 0.5))
    builder.add_pad("B", (3.5, 0.5, 0.5))
    builder.link("A", "B")
    with pytest.raises(ValueError):
        builder.build()


def test_stream_ids_default_and_custom():
    builder = ScenarioBuilder(seed=1)
    builder.add_pad("A")
    builder.add_pad("B")
    builder.clique("A", "B")
    assert builder.udp("A", "B", 8.0) == "A-B"
    assert builder.udp("B", "A", 8.0, stream_id="down") == "down"
    scenario = builder.build()
    assert set(scenario.streams) == {"A-B", "down"}


def test_noise_attached():
    builder = two_station_builder()
    builder.noise(PacketErrorModel(1.0))
    scenario = builder.build().run(5.0)
    assert scenario.throughput("P-B", warmup=0.0) == 0.0


def test_scheduled_event_runs():
    builder = two_station_builder()
    seen = []
    builder.at(3.0, lambda scenario: seen.append(scenario.sim.now))
    builder.build().run(5.0)
    assert seen == [3.0]


def test_power_off_at_stops_stream():
    builder = two_station_builder()
    builder.power_off_at("P", 5.0)
    scenario = builder.build().run(10.0)
    before = scenario.recorder.throughput_pps("P-B", 1.0, 5.0)
    after = scenario.recorder.throughput_pps("P-B", 6.0, 10.0)
    assert before > 25.0
    assert after == 0.0


def test_custom_timing_flows_to_macs():
    timing = MacTiming(margin_slots=2.0)
    builder = two_station_builder(profile=RunProfile(timing=timing))
    scenario = builder.build()
    assert scenario.station("P").mac.timing.margin_slots == 2.0


def test_build_is_repeatable():
    builder = two_station_builder()
    first = builder.build().run(5.0).throughput("P-B", warmup=1.0)
    second = builder.build().run(5.0).throughput("P-B", warmup=1.0)
    assert first == second  # same seed, fresh simulator each time


def test_tcp_stream_built():
    builder = ScenarioBuilder(seed=1)
    builder.add_base("B")
    builder.add_pad("P")
    builder.clique("B", "P")
    builder.tcp("P", "B", 16.0)
    scenario = builder.build().run(10.0)
    assert scenario.throughput("P-B", warmup=2.0) > 10.0


def test_link_rejects_undeclared_stations():
    builder = ScenarioBuilder(seed=1)
    builder.add_base("B")
    with pytest.raises(ValueError, match="unknown station 'P'.*add_pad"):
        builder.link("B", "P")


def test_clique_rejects_undeclared_stations():
    builder = ScenarioBuilder(seed=1)
    builder.add_base("B")
    builder.add_pad("P")
    with pytest.raises(ValueError, match="unknown station 'Q'"):
        builder.clique("B", "P", "Q")


#: Which builds keep their trace rows: (profile knobs, capture blocks
#: outermost first, rows kept).  Only a digest capture with nothing that
#: reads rows drops them; a sweep cell, --digest and the golden pins are
#: that case.
_ROW_RULE = {
    "digests": ({}, [{"digests": True}], False),
    "trace": ({"trace": True}, [{"digests": True}], True),
    "sanitize": ({"sanitize": True}, [{"digests": True}], True),
    "traces": ({}, [{"traces": True}], True),
    "traces-in-digests": ({}, [{"digests": True}, {"traces": True}], True),
    "digests-in-traces": ({}, [{"traces": True}, {"digests": True}], True),
}


@pytest.mark.parametrize("case", sorted(_ROW_RULE))
def test_only_a_digest_capture_drops_trace_rows(case):
    knobs, blocks, keeps = _ROW_RULE[case]
    knobs = {"sanitize": False, **knobs}
    with ExitStack() as stack:
        for block in blocks:
            stack.enter_context(capturing(**block))
        scenario = two_station_builder(profile=RunProfile(**knobs)).build()
        assert scenario.sim.trace.enabled
        assert scenario.sim.trace.keeps_rows is keeps
        scenario.run(10.0)
    reference = two_station_builder(profile=RunProfile(trace=True, sanitize=False))
    assert scenario.sim.trace.digest() == reference.build().run(10.0).sim.trace.digest()


def test_untraced_build_keeps_its_empty_rows_readable():
    scenario = two_station_builder(profile=RunProfile(sanitize=False)).build().run(2.0)
    assert not scenario.sim.trace.enabled
    assert scenario.sim.trace.select() == []


def test_digest_only_build_refuses_to_verify():
    with capturing(digests=True):
        scenario = two_station_builder(profile=RunProfile(sanitize=False)).build()
    scenario.run(2.0)
    with pytest.raises(RuntimeError, match=r"trace=True.*capturing\(traces=True\)"):
        scenario.verify()
