"""Append-only, digest-chained JSONL job journal.

One journal records one sweep job's durable state: a header naming the
job spec, then one record per completed cell (identity, trace digest,
metric value, timing), policy stop decisions, and a terminal
``complete`` or ``interrupted`` record.  Records are JSON objects, one
per line, each carrying ``prev`` — the SHA-256 of the previous line's
exact bytes — so any tampering, truncation-in-the-middle or interleaved
write breaks the chain and is detected at load time.

Crash tolerance is by construction: every append is a single
``write + flush + fsync`` of one canonical line, so a killed sweep
leaves at most one torn *final* line, which :meth:`Journal.load`
discards (a torn line cannot be chain-consistent *and* complete).  A
resumed sweep replays the surviving records and continues appending to
the same file.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = ["GENESIS", "Journal", "JournalError", "chain_hash",
           "digest_set_hash"]

PathLike = Union[str, Path]

#: ``prev`` value of the first record (nothing before it).
GENESIS = ""


class JournalError(RuntimeError):
    """A journal failed chain verification or carries a foreign job."""


def _canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def chain_hash(line: str) -> str:
    """The chain link value of one serialized journal line."""
    return hashlib.sha256(line.encode("utf-8")).hexdigest()


class Journal:
    """One job's append-only record stream at ``path``."""

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        #: Chain hash of the last durable line (GENESIS when empty).
        self._tip = GENESIS
        self._count = 0

    # ----------------------------------------------------------------- read
    def load(self) -> List[Dict[str, Any]]:
        """Parse and verify every durable record; resets the append tip.

        A torn final line (crash mid-append) is dropped silently; any
        other chain break raises :class:`JournalError`.
        """
        records: List[Dict[str, Any]] = []
        self._tip = GENESIS
        self._count = 0
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return records
        lines = text.split("\n")
        # A well-formed file ends with "\n": the final split element is "".
        for number, line in enumerate(lines, start=1):
            if not line:
                continue
            torn_tail = number == len(lines)  # no trailing newline
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except ValueError as exc:
                if torn_tail:
                    break  # crash mid-append: drop the torn line
                raise JournalError(
                    f"{self.path}:{number}: unparseable record: {exc}"
                ) from None
            if record.get("prev") != self._tip:
                if torn_tail:
                    break
                raise JournalError(
                    f"{self.path}:{number}: chain break (expected prev="
                    f"{self._tip[:12] or 'GENESIS'!r})"
                )
            records.append(record)
            self._tip = chain_hash(line)
            self._count += 1
        return records

    # ---------------------------------------------------------------- write
    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Durably append one record, linking it into the chain.

        The ``prev`` field is filled in here; callers pass plain data.
        Returns the record as written.
        """
        if "prev" in record:
            raise ValueError("'prev' is journal-managed; do not set it")
        linked = dict(record)
        linked["prev"] = self._tip
        line = _canonical(linked)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._tip = chain_hash(line)
        self._count += 1
        return linked

    def __len__(self) -> int:
        return self._count

    @property
    def tip(self) -> str:
        return self._tip


def digest_set_hash(digests: List[Optional[str]]) -> str:
    """Order-independent fingerprint of a sweep's per-cell digest set.

    Sorted before hashing, so an interrupted-then-resumed sweep (whose
    completion order differs) fingerprints identically to an
    uninterrupted one.  ``None`` digests (digest collection off)
    contribute a fixed marker.
    """
    hasher = hashlib.sha256()
    for digest in sorted(d if d is not None else "-" for d in digests):
        hasher.update(digest.encode("ascii"))
        hasher.update(b"\n")
    return hasher.hexdigest()
