"""Trace recorder behaviour."""

import hashlib

import pytest

import repro.sim.trace as trace_module
from repro.sim.trace import Trace, TraceRecord


def test_disabled_trace_records_nothing():
    trace = Trace(enabled=False)
    trace.record(1.0, "send", "P1", frame="RTS")
    assert len(trace) == 0


def test_record_and_iterate():
    trace = Trace()
    trace.record(1.0, "send", "P1", frame="RTS")
    trace.record(2.0, "send", "P2", frame="CTS")
    assert [r.station for r in trace] == ["P1", "P2"]


def test_select_by_category_and_station():
    trace = Trace()
    trace.record(1.0, "send", "P1")
    trace.record(2.0, "state", "P1")
    trace.record(3.0, "send", "P2")
    assert len(trace.select(category="send")) == 2
    assert len(trace.select(station="P1")) == 2
    assert len(trace.select(category="send", station="P1")) == 1


def test_counts_histogram():
    trace = Trace()
    trace.record(1.0, "send", "P1")
    trace.record(2.0, "send", "P1")
    trace.record(3.0, "state", "P2")
    assert trace.counts() == {("send", "P1"): 2, ("state", "P2"): 1}


def test_clear_resets():
    trace = Trace()
    trace.record(0.0, "a", "s")
    trace.record(1.0, "a", "s")
    trace.clear()
    assert len(trace) == 0
    assert trace.enabled


def test_record_is_frozen():
    trace = Trace()
    trace.record(1.0, "send", "P1", k=1)
    for record in (TraceRecord(1.0, "send", "P1", {"k": 1}), next(iter(trace))):
        assert isinstance(record, TraceRecord)
        assert record.time == 1.0
        assert record.category == "send"
        assert record.station == "P1"
        assert record.detail == {"k": 1}
        for name in ("time", "category", "station", "detail"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert record.matches(category="send")
        assert not record.matches(category="state")
        assert record.matches(station="P1")
        assert not record.matches(station="P2")


# ---------------------------------------------------------------- digest format
def _reference_digest(records) -> str:
    """The canonical line format, rendered one record at a time.

    Kept verbatim from the original ``Trace.digest`` loop: whatever
    ``digest()`` does internally must hash exactly these bytes.
    """
    hasher = hashlib.sha256()
    for record in records:
        detail = ",".join(
            f"{key}={record.detail[key]!r}" for key in sorted(record.detail)
        )
        line = f"{record.time!r}|{record.category}|{record.station}|{detail}\n"
        hasher.update(line.encode("utf-8"))
    return hasher.hexdigest()


#: (time, category, station, detail) rows, one list per format hazard.
_CASES = {
    "float-times": [
        (0.1 + 0.2, "send", "P1", {"size": 30}),
        (1e-07, "send", "P1", {"size": 30}),
    ],
    "signed-zero": [
        (0.0, "state", "P1", {"v": 0.0}),
        (-0.0, "state", "P1", {"v": -0.0}),
    ],
    "bool-int-float-one-key": [
        (1.0, "recv", "P1", {"clean": True}),
        (2.0, "recv", "P1", {"clean": 1}),
        (3.0, "recv", "P1", {"clean": 1.0}),
    ],
    "none": [(1.0, "send", "P1", {"esn": None, "frame": "DATA P1→B"})],
    "non-ascii": [(1.0, "send", "P1", {"frame": "RTS P1→B esn=3", "kind": "RTS"})],
    "tuple-values": [
        (1.0, "x", "P1", {"pair": (1, 2), "k": 3}),
        (2.0, "x", "P1", {"pair": (1, 2)}),
        (3.0, "x", "P1", {"pair": ()}),
        (4.0, "x", "P1", {"pair": (5,)}),
        (5.0, "x", "P1", {"pair": ((1, 2), "a")}),
    ],
    "empty-detail": [(1.0, "power", "P1", {}), (2.0, "power", "P2", {})],
    "key-order": [
        (1.0, "state", "P1", {"frm": "IDLE", "to": "CONTEND"}),
        (2.0, "state", "P1", {"to": "IDLE", "frm": "CONTEND"}),
    ],
    "percent-in-key": [(1.0, "x", "P1", {"a%r": 1, "b%%s": "%d"})],
}


def _traced(rows) -> Trace:
    trace = Trace()
    for time, category, station, detail in rows:
        trace.record(time, category, station, **detail)
    return trace


@pytest.mark.parametrize("case", sorted(_CASES))
def test_digest_matches_reference_rendering(case):
    trace = _traced(_CASES[case])
    assert trace.digest() == _reference_digest(trace)


def test_digest_matches_reference_across_mixed_shapes():
    rows = [row for case in sorted(_CASES) for row in _CASES[case]]
    trace = _traced(rows)
    assert trace.digest() == _reference_digest(trace)


def test_digest_of_empty_trace():
    assert Trace().digest() == hashlib.sha256().hexdigest()


def test_digest_ignores_detail_insertion_order():
    forward, backward = Trace(), Trace()
    forward.record(1.0, "send", "P1", src="P1", dst="B", esn=3)
    backward.record(1.0, "send", "P1", esn=3, dst="B", src="P1")
    assert forward.digest() == backward.digest() == _reference_digest(forward)


def test_digest_spans_more_than_one_hashing_chunk():
    rows = []
    for i in range(10_007):
        if i % 3 == 0:
            rows.append((i * 1e-3, "recv", f"P{i % 7}", {"frame": "RTS", "clean": i % 2 == 0}))
        elif i % 3 == 1:
            rows.append((i * 1e-3, "state", f"P{i % 7}", {"to": "IDLE", "frm": str(i)}))
        else:
            rows.append((i * 1e-3, "power", f"P{i % 7}", {}))
    assert len(rows) > getattr(trace_module, "_DIGEST_CHUNK", 1)
    trace = _traced(rows)
    assert trace.digest() == _reference_digest(trace)
