"""Trace recorder behaviour."""

import hashlib
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _traced(rows, form="keyword", keep_rows=True) -> Trace:
    trace = Trace(keep_rows=keep_rows)
    for time, category, station, detail in rows:
        _FORMS[form](trace, time, category, station, detail)
    return trace


#: Flush sizes that put a chunk boundary inside every case, and the default.
_CHUNKS = (1, 2, 3, trace_module._DIGEST_CHUNK)


def _check_both_forms_hash_the_reference(rows, monkeypatch):
    """A kept trace and a digest-only one, each record form, every chunk."""
    expected = _reference_digest(TraceRecord(*row) for row in rows)
    for chunk in _CHUNKS:
        monkeypatch.setattr(trace_module, "_DIGEST_CHUNK", chunk)
        for form in _FORMS:
            kept = _traced(rows, form)
            dropped = _traced(rows, form, keep_rows=False)
            assert list(kept) == [TraceRecord(*row) for row in rows], form
            assert kept.digest() == dropped.digest() == expected, (chunk, form)
            assert len(dropped) == len(kept) == len(rows)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_digest_matches_reference_rendering(case, monkeypatch):
    _check_both_forms_hash_the_reference(_CASES[case], monkeypatch)


def test_digest_matches_reference_across_mixed_shapes(monkeypatch):
    rows = [row for case in sorted(_CASES) for row in _CASES[case]]
    _check_both_forms_hash_the_reference(rows, monkeypatch)


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
    assert _traced(rows, keep_rows=False).digest() == trace.digest()


# ---------------------------------------------------------------- digest-only
def test_digest_only_trace_digests_mid_stream_and_counts_every_row(monkeypatch):
    monkeypatch.setattr(trace_module, "_DIGEST_CHUNK", 3)
    rows = [row for case in sorted(_CASES) for row in _CASES[case]]
    kept, dropped = Trace(), Trace(keep_rows=False)
    for count, (time, category, station, detail) in enumerate(rows, 1):
        for trace in (kept, dropped):
            _record_positional(trace, time, category, station, detail)
        assert dropped.digest() == kept.digest()
        assert len(dropped) == len(kept) == count
        assert len(dropped._rows) < 3
    assert not dropped.keeps_rows and kept.keeps_rows


def test_clearing_a_digest_only_trace_restarts_its_digest(monkeypatch):
    monkeypatch.setattr(trace_module, "_DIGEST_CHUNK", 2)
    trace = _traced(_CASES["shared-time-object"], keep_rows=False)
    trace.clear()
    assert len(trace) == 0
    assert trace.digest() == Trace().digest() == hashlib.sha256().hexdigest()
    rows = _CASES["float-times"]
    for time, category, station, detail in rows:
        _record_keyword(trace, time, category, station, detail)
    assert trace.digest() == _traced(rows).digest()
    assert not trace.keeps_rows


def test_digest_only_trace_refuses_its_readers():
    trace = _traced(_CASES["float-times"], keep_rows=False)
    readers = [
        lambda: list(trace),
        trace.select,
        lambda: trace.fields({"send": ("size",)}),
        trace.counts,
    ]
    for read in readers:
        with pytest.raises(RuntimeError, match=r"trace=True.*capturing\(traces=True\)"):
            read()


#: Time objects whose values collide (``0.0 == -0.0``, ``1 == 1.0 ==
#: True``) and which are equal but distinct objects (the ``+ 0.0`` copies);
#: a sequence draws indices into this list, so the same object recurs.
_POOL = [0.0, -0.0, 1, 1.0, True, 0.1 + 0.2, 1e-07, 2.5]
_POOL += [time + 0.0 for time in _POOL[5:]]

_records = st.lists(
    st.tuples(
        st.integers(0, len(_POOL) - 1),
        st.sampled_from(["send", "recv", "state"]),
        st.sampled_from(["P1", "P2", "B"]),
        st.dictionaries(st.sampled_from(["clean", "esn", "frm"]),
                        st.one_of(st.integers(-2, 2), st.booleans(), st.none(),
                                  st.text(max_size=3)),
                        max_size=3),
        st.booleans(),  # digest after this record
    ),
    max_size=40,
)


@given(_records, st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_digest_only_trace_hashes_what_a_kept_trace_hashes(records, chunk):
    with mock.patch.object(trace_module, "_DIGEST_CHUNK", chunk):
        kept, dropped = Trace(), Trace(keep_rows=False)
        for index, category, station, detail, check in records:
            for trace in (kept, dropped):
                _record_keyword(trace, _POOL[index], category, station, detail)
            if check:
                assert dropped.digest() == kept.digest()
        assert dropped.digest() == kept.digest() == _reference_digest(kept)
        assert len(dropped) == len(kept) == len(records)


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


def test_digest_only_trace_retains_under_two_chunks():
    """A kept store retains about 130 bytes a recv row: 6.5 MB for these."""
    shape, category, detail = _IN_TREE[1]
    values = [detail[key] for key in shape.keys]
    times = [i * 1e-3 for i in range(50_000)]
    trace = Trace(keep_rows=False)
    trace.record(0.0, category, "P1", shape, *values)  # first-call work outside the window
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for time in times:
            trace.record(time, category, "P1", shape, *values)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == len(times) + 1
    assert retained < 2 * trace_module._DIGEST_CHUNK * 130


def test_shapes_are_interned_and_need_sorted_unique_keys():
    assert RecordShape(["frm", "to"]) is RecordShape(("frm", "to")) is STATE_SHAPE
    for keys in (("to", "frm"), ("k", "k")):
        with pytest.raises(ValueError):
            RecordShape(keys)


def test_record_rejects_a_shape_mixed_with_keywords():
    with pytest.raises(TypeError):
        Trace().record(1.0, "state", "P1", STATE_SHAPE, "IDLE", "CONTEND", frm="IDLE")


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
