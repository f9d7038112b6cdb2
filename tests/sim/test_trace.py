"""Trace recorder behaviour."""

import hashlib
import pickle
import tracemalloc

import pytest

import repro.sim.trace as trace_module
from repro.core.macaw import STATE_SHAPE
from repro.mac.base import POWER_SHAPE, SEND_SHAPE
from repro.phy.medium import RECV_SHAPE
from repro.sim.trace import RecordShape, Trace, TraceRecord


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


#: One time object shared by consecutive rows, as every receiver of one
#: transmission shares ``sim.now``.
_SHARED_TIME = 0.1 + 0.2

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
    # Equal times that render differently, back to back: a repr memo keyed
    # by value instead of identity would hash one line wrong.
    "equal-but-distinct-times": [
        (0.0, "x", "P1", {"k": 1}),
        (-0.0, "x", "P1", {"k": 1}),
        (1, "x", "P1", {"k": 1}),
        (1.0, "x", "P1", {"k": 1}),
        (True, "x", "P1", {"k": 1}),
    ],
    "shared-time-object": [
        (_SHARED_TIME, "recv", f"P{i}", {"clean": i % 2 == 0, "frame": "RTS P0→B"})
        for i in range(4)
    ],
}


def _record_keyword(trace, time, category, station, detail):
    trace.record(time, category, station, **detail)


def _record_positional(trace, time, category, station, detail):
    shape = RecordShape(sorted(detail))
    trace.record(time, category, station, shape, *(detail[key] for key in shape.keys))


_FORMS = {"keyword": _record_keyword, "positional": _record_positional}


def _traced(rows, form="keyword") -> Trace:
    trace = Trace()
    for time, category, station, detail in rows:
        _FORMS[form](trace, time, category, station, detail)
    return trace


@pytest.mark.parametrize("case", sorted(_CASES))
def test_digest_matches_reference_rendering(case):
    for form in _FORMS:
        trace = _traced(_CASES[case], form)
        assert trace.digest() == _reference_digest(trace), form
        assert list(trace) == [TraceRecord(*row) for row in _CASES[case]], form


def test_digest_matches_reference_across_mixed_shapes():
    rows = [row for case in sorted(_CASES) for row in _CASES[case]]
    for form in _FORMS:
        trace = _traced(rows, form)
        assert trace.digest() == _reference_digest(trace), form


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


# ---------------------------------------------------------------- row store
#: One record of every shape the model emits, keyed by its call site's shape.
_IN_TREE = [
    (SEND_SHAPE, "send", {
        "frame": "DATA P1→B esn=7", "kind": "DATA", "src": "P1", "dst": "B",
        "esn": 7, "size": 512, "data_bytes": 512, "retry": False,
    }),
    (RECV_SHAPE, "recv", {
        "frame": "DATA P1→B esn=7", "kind": "DATA", "src": "P1", "dst": "B",
        "esn": 7, "size": 512, "clean": True,
    }),
    (STATE_SHAPE, "state", {"frm": "IDLE", "to": "CONTEND"}),
    (POWER_SHAPE, "power", {"on": False}),
]


@pytest.mark.parametrize("shape, category, detail", _IN_TREE,
                         ids=[category for _, category, _ in _IN_TREE])
def test_positional_and_keyword_forms_store_the_same_record(shape, category, detail):
    assert shape.keys == tuple(sorted(detail))
    positional, keyword = Trace(), Trace()
    positional.record(2.5, category, "P1", shape, *(detail[key] for key in shape.keys))
    keyword.record(2.5, category, "P1", **detail)
    assert list(positional) == list(keyword) == [TraceRecord(2.5, category, "P1", detail)]
    assert positional.digest() == keyword.digest() == _reference_digest(keyword)


@pytest.mark.parametrize("form", sorted(_FORMS))
def test_recv_record_retains_under_200_bytes(form):
    """A named tuple plus a detail dict per record retained 360 bytes."""
    detail = dict(_IN_TREE[1][2])
    times = [i * 1e-3 for i in range(10_000)]
    record = _FORMS[form]
    trace = Trace()
    record(trace, 0.0, "recv", "P1", detail)  # make the shape outside the window
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for time in times:
            record(trace, time, "recv", "P1", detail)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / len(times) < 200


def test_shapes_are_interned_and_need_sorted_unique_keys():
    assert RecordShape(["frm", "to"]) is RecordShape(("frm", "to")) is STATE_SHAPE
    for keys in (("to", "frm"), ("k", "k")):
        with pytest.raises(ValueError):
            RecordShape(keys)


def test_record_rejects_a_shape_mixed_with_keywords():
    with pytest.raises(TypeError):
        Trace().record(1.0, "state", "P1", STATE_SHAPE, "IDLE", "CONTEND", frm="IDLE")


def test_pickle_round_trip_keeps_interned_shapes_and_digest():
    rows = [row for case in sorted(_CASES) for row in _CASES[case]]
    trace = _traced(rows, "positional")
    copy = pickle.loads(pickle.dumps(trace))
    assert copy.digest() == trace.digest()
    assert list(copy) == list(trace)
    assert len(copy._rows) == len(trace._rows)
    assert all(a[-1] is b[-1] for a, b in zip(copy._rows, trace._rows))
    assert pickle.loads(pickle.dumps(RECV_SHAPE)) is RECV_SHAPE


def test_fields_reads_named_values_per_category():
    trace = Trace()
    trace.record(1.0, "state", "P1", frm="IDLE", to="CONTEND")
    trace.record(2.0, "send", "P1", kind="RTS", dst="B")   # no esn key
    trace.record(3.0, "power", "P1", on=False)
    wanted = {"state": ("to", "frm"), "send": ("esn", "dst", "kind")}
    assert list(trace.fields(wanted)) == [
        (1.0, "state", "P1", "CONTEND", "IDLE"),
        (2.0, "send", "P1", None, "B", "RTS"),
        (3.0, "power", "P1"),
    ]
