"""Lightweight protocol event tracing.

A :class:`Trace` collects timestamped records emitted by model components
(frame sent, frame received, collision, state change, packet drop...).
Traces power the debugging workflow and a few tests that assert on protocol
event sequences; they are disabled by default because recording every event
of a 2000-second run is expensive.
"""

from __future__ import annotations

import hashlib
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Type, cast


class TraceRecord(NamedTuple):
    """One traced protocol event (immutable: fields cannot be assigned)."""

    time: float
    category: str
    station: str
    detail: Dict[str, Any]

    def matches(self, category: Optional[str] = None, station: Optional[str] = None) -> bool:
        """Filter predicate used by :meth:`Trace.select`."""
        if category is not None and self.category != category:
            return False
        if station is not None and self.station != station:
            return False
        return True


#: Builds a record from one 4-tuple without the named tuple's Python-level
#: ``__new__`` (the ``_make`` idiom, minus the classmethod call).
_new_record = cast(Callable[[Type[TraceRecord], Tuple[Any, ...]], TraceRecord], tuple.__new__)

#: Records rendered per ``hasher.update`` in :meth:`Trace.digest`.
_DIGEST_CHUNK = 4096

#: Per detail key shape: the whole-line format and the getter of the detail
#: values in sorted-key order.
_LineFormat = Tuple[str, Callable[[Dict[str, Any]], Tuple[Any, ...]]]


def _line_format(shape: Tuple[str, ...]) -> _LineFormat:
    keys = sorted(shape)
    fmt = "%r|%s|%s|" + ",".join(f"{key.replace('%', '%%')}=%r" for key in keys) + "\n"
    if len(keys) > 1:
        return fmt, itemgetter(*keys)
    # A one-key itemgetter returns the bare value, which ``%`` would
    # unpack if it were a tuple; no call site records fewer than two keys
    # often enough for this slower getter to matter.
    return fmt, lambda detail: tuple(detail[key] for key in keys)


class Trace:
    """Append-only record store with simple filtering.

    ``enabled=False`` turns :meth:`record` into a no-op so the hot path pays
    only one attribute check.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: List[TraceRecord] = []

    def record(self, time: float, category: str, station: str, **detail: Any) -> None:
        """Append a record (no-op when disabled)."""
        if self.enabled:
            self._records.append(_new_record(TraceRecord, (time, category, station, detail)))

    def select(
        self, category: Optional[str] = None, station: Optional[str] = None
    ) -> List[TraceRecord]:
        """Records matching the given filters, in time order."""
        return [r for r in self._records if r.matches(category, station)]

    def counts(self) -> Dict[Tuple[str, str], int]:
        """Histogram of records keyed by ``(category, station)``."""
        out: Dict[Tuple[str, str], int] = {}
        for r in self._records:
            key = (r.category, r.station)
            out[key] = out.get(key, 0) + 1  # repro-lint: allow=REPRO107 (post-hoc histogram)
        return out

    def clear(self) -> None:
        """Discard all records (keeps the enabled flag)."""
        self._records.clear()

    def digest(self) -> str:
        """SHA-256 over a canonical rendering of every record.

        Two runs of the same scenario under the same seed must produce
        byte-identical digests — the determinism regression tests and the
        golden pins compare exactly this.  Each record renders as the UTF-8
        line ``repr(time)|category|station|k1=repr(v1),k2=repr(v2),...``
        with the detail keys sorted, so insertion order cannot leak into
        the digest.  This method is the only definition of that format.

        The format and value getter are built once per detail key shape
        (call sites emit one shape each) and the lines are hashed in
        chunks; SHA-256 of the concatenation does not depend on how it is
        fed to the hasher.
        """
        hasher = hashlib.sha256()
        formats: Dict[Tuple[str, ...], _LineFormat] = {}
        records = self._records
        for start in range(0, len(records), _DIGEST_CHUNK):
            lines: List[str] = []
            append = lines.append
            for time, category, station, detail in records[start:start + _DIGEST_CHUNK]:
                shape = tuple(detail)
                try:
                    fmt, values = formats[shape]
                except KeyError:
                    fmt, values = formats[shape] = _line_format(shape)
                append(fmt % (time, category, station, *values(detail)))
            hasher.update("".join(lines).encode("utf-8"))
        return hasher.hexdigest()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)
