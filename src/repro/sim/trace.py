"""Lightweight protocol event tracing.

A :class:`Trace` collects timestamped records emitted by model components
(frame sent, frame received, collision, state change, packet drop...).
Traces power the debugging workflow and a few tests that assert on protocol
event sequences; they are disabled by default because recording every event
of a 2000-second run is expensive.  A trace kept only for its digest hashes
its rows as they arrive and drops them.
"""

from __future__ import annotations

import hashlib
from operator import itemgetter
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Type, cast)


class TraceRecord(NamedTuple):
    """One traced protocol event (immutable: fields cannot be assigned)."""

    time: float
    category: str
    station: str
    detail: Dict[str, Any]

    def matches(self, category: Optional[str] = None, station: Optional[str] = None) -> bool:
        """The filter :meth:`Trace.select` applies, for a built record."""
        if category is not None and self.category != category:
            return False
        if station is not None and self.station != station:
            return False
        return True


#: Builds a record from one 4-tuple without the named tuple's Python-level
#: ``__new__`` (the ``_make`` idiom, minus the classmethod call).
_new_record = cast(Callable[[Type[TraceRecord], Tuple[Any, ...]], TraceRecord], tuple.__new__)

#: Records rendered per ``hasher.update``, and the rows a digest-only
#: trace holds before it hashes and drops them.
_DIGEST_CHUNK = 4096

#: The ``repr(time)`` memo before any row: no time object is this one.
_NO_TIME = object()

#: A stored record: ``(time, category, station, *values, shape)``.
_Row = Tuple[Any, ...]

#: Every shape made so far, by key tuple (see :class:`RecordShape`).
_SHAPES: Dict[Tuple[str, ...], "RecordShape"] = {}


class RecordShape:
    """The sorted detail keys of one kind of record, and its digest line.

    ``RecordShape(keys)`` is interned: it returns the one instance for
    that key tuple, so every row of a shape shares one object and work
    done once per shape is looked up by identity.  Keys must be sorted
    and unique; a positional :meth:`Trace.record` passes its values in
    this order.
    """

    __slots__ = ("keys", "line")

    keys: Tuple[str, ...]
    #: ``%`` format of a digest line after its ``repr(time)``, taking the
    #: row's category, station and values.
    line: str

    def __new__(cls, keys: Iterable[str]) -> "RecordShape":
        names = tuple(keys)
        shape = _SHAPES.get(names)
        if shape is None:
            if list(names) != sorted(set(names)):
                raise ValueError(f"record shape keys must be sorted and unique: {names!r}")
            shape = super().__new__(cls)
            shape.keys = names
            shape.line = (
                "|%s|%s|" + ",".join(f"{key.replace('%', '%%')}=%r" for key in names) + "\n"
            )
            _SHAPES[names] = shape
        return shape

    def __repr__(self) -> str:
        return f"RecordShape({self.keys!r})"


def _as_record(row: _Row) -> TraceRecord:
    return _new_record(TraceRecord, (row[0], row[1], row[2], dict(zip(row[-1].keys, row[3:-1]))))


def _hash_rows(hasher: Any, rows: Sequence[_Row], last: object, stamp: str) -> Tuple[object, str]:
    """Feed the digest lines of ``rows`` to ``hasher``, in order.

    This is the only definition of the line format (described in
    :meth:`Trace.digest`).  ``(last, stamp)`` is the ``repr(time)`` memo
    left by the row before ``rows`` (``_NO_TIME`` for none), and the memo
    after the last row is returned, so rows hashed in pieces render as
    they would in one piece.
    """
    for start in range(0, len(rows), _DIGEST_CHUNK):
        lines: List[str] = []
        append = lines.append
        for row in rows[start:start + _DIGEST_CHUNK]:
            time = row[0]
            if time is not last:
                last, stamp = time, repr(time)
            append(stamp + row[-1].line % row[1:-1])
        hasher.update("".join(lines).encode("utf-8"))
    return last, stamp


class _Hashed:
    """The rows a digest-only trace has hashed and dropped."""

    __slots__ = ("hasher", "rows", "last", "stamp")

    def __init__(self) -> None:
        self.hasher = hashlib.sha256()
        self.rows = 0
        #: The ``repr(time)`` memo the next row continues.
        self.last: object = _NO_TIME
        self.stamp = ""


def _field_getter(shape: RecordShape, keys: Sequence[str]) -> Callable[[_Row], _Row]:
    """Reads ``(time, category, station, *values of keys)`` off a row of
    ``shape``; a key the shape lacks reads the None a padded row ends with."""
    index = {key: 3 + position for position, key in enumerate(shape.keys)}
    past_end = len(shape.keys) + 4
    get = itemgetter(0, 1, 2, *(index.get(key, past_end) for key in keys))
    if all(key in index for key in keys):
        return get
    return lambda row: get((*row, None))


def _fields(rows: List[_Row], wanted: Mapping[str, Sequence[str]]) -> Iterator[_Row]:
    """The generator behind :meth:`Trace.fields`, apart so that the method
    raises on a digest-only trace when called, not at the first ``next()``."""
    getters: Dict[str, Dict[RecordShape, Callable[[_Row], _Row]]] = {}
    for row in rows:
        try:
            get = getters[row[1]][row[-1]]
        except KeyError:
            get = getters.setdefault(row[1], {})[row[-1]] = _field_getter(
                row[-1], wanted.get(row[1], ())
            )
        yield get(row)


class Trace:
    """Append-only record store with simple filtering, or a digest alone.

    Each record is one flat row, ``(time, category, station, *values,
    shape)``: the detail values in the order of the interned
    :class:`RecordShape`'s keys, then the shape, so no per-record dict is
    kept.  Iteration and :meth:`select` rebuild :class:`TraceRecord`
    objects after filtering; :meth:`fields` reads named values without
    them.  Only this module knows the row layout.

    ``keep_rows=False`` makes a digest-only trace: every
    :data:`_DIGEST_CHUNK` rows, :meth:`record` hashes them into a running
    SHA-256 and drops them, so memory stays flat however long the run.
    :meth:`digest` and ``len()`` cover every record; the readers
    (iteration, :meth:`select`, :meth:`fields`, :meth:`counts`) raise.

    ``enabled=False`` turns :meth:`record` into a no-op so the hot path pays
    only one attribute check.
    """

    #: A digest-only trace's hashed prefix.  A trace that keeps its rows
    #: reads this class default.
    _hashed: Optional[_Hashed] = None

    def __init__(self, enabled: bool = True, keep_rows: bool = True) -> None:
        self.enabled = enabled
        self._rows: List[_Row] = []
        if not keep_rows:
            self._hashed = _Hashed()

    @property
    def keeps_rows(self) -> bool:
        """False for a digest-only trace, whose rows cannot be read."""
        return self._hashed is None

    def record(
        self,
        time: float,
        category: str,
        station: str,
        shape: Optional[RecordShape] = None,
        /,
        *values: Any,
        **detail: Any,
    ) -> None:
        """Append a record (no-op when disabled).

        Two forms store the same row: ``record(time, category, station,
        shape, *values)``, with the values in ``shape.keys`` order, builds
        no dict and is what the model's call sites use;
        ``record(time, category, station, **detail)`` takes the keys as
        keywords.
        """
        if self.enabled:
            if shape is None:
                shape = RecordShape(sorted(detail))
                values = tuple(map(detail.__getitem__, shape.keys))
            elif detail:
                raise TypeError("record() takes a shape and its values, or keywords, not both")
            rows = self._rows
            rows.append((time, category, station, *values, shape))
            if self._hashed is not None and len(rows) >= _DIGEST_CHUNK:
                self._flush(self._hashed)

    def _flush(self, hashed: _Hashed) -> None:
        """Hash the held rows into ``hashed`` and drop them."""
        rows = self._rows
        hashed.last, hashed.stamp = _hash_rows(hashed.hasher, rows, hashed.last, hashed.stamp)
        hashed.rows += len(rows)
        rows.clear()

    def _readable_rows(self) -> List[_Row]:
        if self._hashed is not None:
            raise RuntimeError(
                "this trace keeps only its digest: it hashed and dropped its rows "
                "as they were recorded; build with trace=True, or inside "
                "capturing(traces=True), to read them"
            )
        return self._rows

    def select(
        self, category: Optional[str] = None, station: Optional[str] = None
    ) -> List[TraceRecord]:
        """Records matching the given filters, in time order."""
        return [
            _as_record(row)
            for row in self._readable_rows()
            if (category is None or row[1] == category)
            and (station is None or row[2] == station)
        ]

    def fields(self, wanted: Mapping[str, Sequence[str]]) -> Iterator[_Row]:
        """Every record as ``(time, category, station, *values)``, in order.

        ``values`` are the record's detail values for the keys ``wanted``
        lists under its category, in that order, with None for a key the
        record lacks (as ``detail.get`` returns); a category ``wanted``
        does not list yields no values.  Unlike iteration this builds no
        :class:`TraceRecord` and no detail dict.
        """
        return _fields(self._readable_rows(), wanted)

    def counts(self) -> Dict[Tuple[str, str], int]:
        """Histogram of records keyed by ``(category, station)``."""
        out: Dict[Tuple[str, str], int] = {}
        for row in self._readable_rows():
            key = (row[1], row[2])
            out[key] = out.get(key, 0) + 1  # repro-lint: allow=REPRO107 (post-hoc histogram)
        return out

    def clear(self) -> None:
        """Discard all records (keeps the enabled flag and the form)."""
        self._rows.clear()
        if self._hashed is not None:
            self._hashed = _Hashed()

    def digest(self) -> str:
        """SHA-256 over a canonical rendering of every record.

        Two runs of the same scenario under the same seed must produce
        byte-identical digests — the determinism regression tests and the
        golden pins compare exactly this.  Each record renders as the UTF-8
        line ``repr(time)|category|station|k1=repr(v1),k2=repr(v2),...``
        with the detail keys sorted, so insertion order cannot leak into
        the digest.  ``_hash_rows``, which this method and a digest-only
        trace's flush both call, is the only definition of that format.

        The rest of a line after ``repr(time)`` comes from the row's shape
        format.  ``repr(time)`` is reused while consecutive rows hold the
        very same time object (every receiver of one transmission does):
        identity, not equality, because ``0.0 == -0.0`` and ``1 == 1.0``
        render differently.  Lines are hashed in chunks; SHA-256 of the
        concatenation does not depend on how it is fed to the hasher, so a
        digest-only trace hashes the rows it has not dropped yet into a
        copy of its running hasher.
        """
        hashed = self._hashed
        if hashed is None:
            hasher, last, stamp = hashlib.sha256(), _NO_TIME, ""
        else:
            hasher, last, stamp = hashed.hasher.copy(), hashed.last, hashed.stamp
        _hash_rows(hasher, self._rows, last, stamp)
        return hasher.hexdigest()

    def __len__(self) -> int:
        """Every record made, including those a digest-only trace dropped."""
        hashed = self._hashed
        return len(self._rows) + (0 if hashed is None else hashed.rows)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_as_record, self._readable_rows())
