"""Conformance checker: synthetic known-bad traces and real known-good runs."""

import pytest

from repro.core.config import RunProfile
from repro.sim.trace import Trace
from repro.verify.conformance import (
    ConformanceError,
    ConformanceReport,
    StationProfile,
    Violation,
    check_trace,
    profile_for_mac,
)
from repro.verify.statecharts import MACAW_STATECHART
from repro.topo.builder import ScenarioBuilder

CTRL_AIR = 30 * 8 / 256_000
DATA_AIR = 512 * 8 / 256_000


def macaw_profiles(*names):
    return {
        name: StationProfile(
            name, statechart=MACAW_STATECHART, use_ds=True, use_ack=True
        )
        for name in names
    }


def send(trace, t, station, kind, dst, esn=None, size=30):
    trace.record(t, "send", station, frame=f"{kind} {station}→{dst}",
                 kind=kind, src=station, dst=dst, esn=esn, size=size,
                 data_bytes=512, retry=False)


def recv(trace, t, station, kind, src, esn=None, clean=True, size=30):
    trace.record(t, "recv", station, frame=f"{kind} {src}→{station}",
                 kind=kind, src=src, dst=station, esn=esn, size=size,
                 clean=clean)


def state(trace, t, station, frm, to):
    trace.record(t, "state", station, frm=frm, to=to)


# ---------------------------------------------------------------- known-good


def test_complete_macaw_exchange_is_clean():
    trace = Trace()
    state(trace, 0.000, "A", "IDLE", "CONTEND")
    state(trace, 0.001, "A", "CONTEND", "WFCTS")
    send(trace, 0.001, "A", "RTS", "B", esn=0)
    recv(trace, 0.003, "B", "RTS", "A", esn=0)
    state(trace, 0.003, "B", "IDLE", "WFDS")
    send(trace, 0.003, "B", "CTS", "A", esn=0)
    recv(trace, 0.005, "A", "CTS", "B", esn=0)
    state(trace, 0.005, "A", "WFCTS", "SendData")
    send(trace, 0.005, "A", "DS", "B", esn=0)
    recv(trace, 0.007, "B", "DS", "A", esn=0)
    state(trace, 0.007, "B", "WFDS", "WFData")
    send(trace, 0.007, "A", "DATA", "B", esn=0, size=512)
    state(trace, 0.024, "A", "SendData", "WFACK")
    recv(trace, 0.024, "B", "DATA", "A", esn=0, size=512)
    send(trace, 0.024, "B", "ACK", "A", esn=0)
    state(trace, 0.024, "B", "WFData", "IDLE")
    recv(trace, 0.026, "A", "ACK", "B", esn=0)
    state(trace, 0.026, "A", "WFACK", "IDLE")
    report = check_trace(trace, macaw_profiles("A", "B"))
    assert report.ok, report.render()
    assert report.examined == {"state": 8, "send": 5, "recv": 5}


def test_empty_trace_is_trivially_clean():
    report = check_trace(Trace(), macaw_profiles("A"))
    assert report.ok
    assert report.examined == {}


# ----------------------------------------------------------------- known-bad


def test_illegal_transition_yields_exactly_one_diagnostic():
    trace = Trace()
    state(trace, 0.0, "A", "IDLE", "WFACK")  # can't await an ACK from idle
    report = check_trace(trace, macaw_profiles("A"))
    assert [v.code for v in report.violations] == ["illegal-transition"]


def test_trace_gap_reported_as_illegal_transition():
    trace = Trace()
    # Claims to leave CONTEND, but the station was never seen entering it.
    state(trace, 0.0, "A", "CONTEND", "WFCTS")
    report = check_trace(trace, macaw_profiles("A"))
    assert [v.code for v in report.violations] == ["illegal-transition"]
    assert "trace gap" in report.violations[0].message


def test_unknown_state_reported():
    trace = Trace()
    state(trace, 0.0, "A", "IDLE", "LIMBO")
    report = check_trace(trace, macaw_profiles("A"))
    assert "unknown-state" in [v.code for v in report.violations]


def test_cts_without_rts_yields_exactly_one_diagnostic():
    trace = Trace()
    send(trace, 0.0, "B", "CTS", "A")  # no RTS was ever received from A
    report = check_trace(trace, macaw_profiles("A", "B"))
    assert [v.code for v in report.violations] == ["cts-without-rts"]


def test_cts_answers_one_rts_only():
    trace = Trace()
    recv(trace, 0.000, "B", "RTS", "A", esn=0)
    send(trace, 0.001, "B", "CTS", "A", esn=0)   # answers the RTS: fine
    send(trace, 0.003, "B", "CTS", "A", esn=0)   # second grant: violation
    report = check_trace(trace, macaw_profiles("A", "B"))
    assert [v.code for v in report.violations] == ["cts-without-rts"]


def test_data_without_ds_reported():
    trace = Trace()
    send(trace, 0.0, "A", "DATA", "B", esn=0, size=512)
    report = check_trace(trace, macaw_profiles("A", "B"))
    assert [v.code for v in report.violations] == ["data-without-ds"]


def test_multicast_data_needs_no_ds():
    trace = Trace()
    send(trace, 0.0, "A", "DATA", "*", esn=0, size=512)
    report = check_trace(trace, macaw_profiles("A", "B"))
    assert report.ok


def test_ds_esn_mismatch_reported():
    trace = Trace()
    send(trace, 0.000, "A", "DS", "B", esn=1)
    send(trace, 0.002, "A", "DATA", "B", esn=2, size=512)
    report = check_trace(trace, macaw_profiles("A", "B"))
    assert [v.code for v in report.violations] == ["data-without-ds"]
    assert "announced" in report.violations[0].message


def test_duplicate_esn_ack_yields_exactly_one_diagnostic():
    trace = Trace()
    recv(trace, 0.000, "B", "DATA", "A", esn=5, size=512)
    send(trace, 0.001, "B", "ACK", "A", esn=5)   # the real ACK: fine
    send(trace, 0.003, "B", "ACK", "A", esn=5)   # re-ACK without rule-7 RTS
    report = check_trace(trace, macaw_profiles("A", "B"))
    assert [v.code for v in report.violations] == ["ack-duplicate-esn"]


def test_rule7_reack_after_retransmitted_rts_is_legal():
    trace = Trace()
    recv(trace, 0.000, "B", "DATA", "A", esn=5, size=512)
    send(trace, 0.001, "B", "ACK", "A", esn=5)
    recv(trace, 0.010, "B", "RTS", "A", esn=5)   # sender missed the ACK
    send(trace, 0.011, "B", "ACK", "A", esn=5)   # control rule 7
    report = check_trace(trace, macaw_profiles("A", "B"))
    assert report.ok, report.render()


def test_unsolicited_ack_reported():
    trace = Trace()
    send(trace, 0.0, "B", "ACK", "A", esn=9)     # no DATA ever received
    report = check_trace(trace, macaw_profiles("A", "B"))
    assert [v.code for v in report.violations] == ["ack-unsolicited"]


def test_esn_regression_reported_only_for_ordered_profiles():
    def data_pair(profiles):
        trace = Trace()
        send(trace, 0.00, "A", "DS", "B", esn=3)
        send(trace, 0.01, "A", "DATA", "B", esn=3, size=512)
        send(trace, 0.05, "A", "DS", "B", esn=1)
        send(trace, 0.06, "A", "DATA", "B", esn=1, size=512)
        return check_trace(trace, profiles)

    ordered = macaw_profiles("A", "B")
    report = data_pair(ordered)
    assert [v.code for v in report.violations] == ["esn-regression"]

    piggyback = {
        "A": StationProfile("A", statechart=MACAW_STATECHART, use_ds=True,
                            use_ack=True, ordered_esn=False),
        "B": ordered["B"],
    }
    assert data_pair(piggyback).ok


def test_overlapping_transmissions_reported():
    trace = Trace()
    send(trace, 0.0, "A", "DATA", "*", esn=0, size=512)
    send(trace, 0.001, "A", "RTS", "B")  # DATA still on the air until 0.016
    report = check_trace(trace, macaw_profiles("A", "B"))
    assert "overlapping-transmission" in [v.code for v in report.violations]


def test_non_monotonic_clock_reported():
    trace = Trace()
    state(trace, 1.0, "A", "IDLE", "CONTEND")
    state(trace, 0.5, "A", "CONTEND", "WFCTS")
    report = check_trace(trace, macaw_profiles("A"))
    assert "non-monotonic-clock" in [v.code for v in report.violations]


def test_corrupt_frames_do_not_enter_the_dialogue():
    trace = Trace()
    recv(trace, 0.000, "B", "RTS", "A", esn=0, clean=False)
    send(trace, 0.001, "B", "CTS", "A", esn=0)
    report = check_trace(trace, macaw_profiles("A", "B"))
    assert [v.code for v in report.violations] == ["cts-without-rts"]


def test_profileless_station_gets_invariants_only():
    trace = Trace()
    send(trace, 0.0, "C", "CTS", "A")              # no profile: not checked
    send(trace, 0.0001, "C", "DATA", "A", size=512)  # but overlap still is
    report = check_trace(trace, macaw_profiles("A"))
    assert [v.code for v in report.violations] == ["overlapping-transmission"]


# ------------------------------------------------------------ report plumbing


def test_report_render_and_by_code():
    report = ConformanceReport(violations=[
        Violation("cts-without-rts", 1.0, "B", "boom"),
        Violation("cts-without-rts", 2.0, "B", "boom again"),
    ])
    assert not report.ok
    assert report.by_code() == {"cts-without-rts": 2}
    assert "2 conformance violation(s)" in report.render()
    with pytest.raises(AssertionError):
        raise ConformanceError(report)


def test_profile_for_mac_distinguishes_protocols():
    builder = ScenarioBuilder(seed=1, protocol="macaw")
    builder.add_pad("P")
    builder.add_pad("Q", protocol="csma")
    scenario = builder.build()
    macaw_profile = profile_for_mac(scenario.station("P").mac)
    assert macaw_profile.statechart is not None
    assert macaw_profile.use_ds and macaw_profile.use_ack
    csma_profile = profile_for_mac(scenario.station("Q").mac)
    assert csma_profile.statechart is None


# ------------------------------------------------------------- scenario glue


def test_real_run_passes_the_checker():
    builder = ScenarioBuilder(seed=3, profile=RunProfile(trace=True))
    builder.add_base("B")
    builder.add_pad("P")
    builder.clique("B", "P")
    builder.udp("P", "B", 32.0)
    scenario = builder.build().run(5.0)
    report = scenario.verify()
    assert report.ok, report.render()
    assert sum(report.examined.values()) == len(scenario.sim.trace)
    assert scenario.conformance is report


def test_sanitize_flag_enables_tracing_and_checks():
    builder = ScenarioBuilder(seed=3, profile=RunProfile(sanitize=True))
    builder.add_base("B")
    builder.add_pad("P")
    builder.clique("B", "P")
    builder.udp("P", "B", 32.0)
    scenario = builder.build()
    assert scenario.sanitize
    assert scenario.sim.trace.enabled
    scenario.run(5.0)
    assert scenario.conformance is not None
    assert scenario.conformance.ok


def test_sanitized_context_reaches_nested_builds():
    from repro.verify.runtime import sanitize_enabled, sanitized

    assert not sanitize_enabled()
    with sanitized(True) as stats:
        builder = ScenarioBuilder(seed=3)
        builder.add_base("B")
        builder.add_pad("P")
        builder.clique("B", "P")
        builder.udp("P", "B", 32.0)
        scenario = builder.build()
        assert scenario.sanitize
        scenario.run(2.0)
    assert stats.runs == 1
    assert stats.records == len(scenario.sim.trace)
    assert stats.violations == 0
    assert not sanitize_enabled()


def test_env_var_enables_sanitize(monkeypatch):
    from repro.verify.runtime import sanitize_enabled

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize_enabled()
    assert not sanitize_enabled(explicit=False)  # explicit choice wins
    monkeypatch.setenv("REPRO_SANITIZE", "off")
    assert not sanitize_enabled()
