"""The binary-heap backend: the kernel's original event queue.

Entries are ``(time, priority, seq, handle)`` tuples so every sift
comparison is a C-level tuple compare (``seq`` is unique, so the handle
itself is never compared).  Schedule and pop are O(log n); cancellation
is lazy O(1) with the dead entry dropped when it surfaces at the head or
swept out by compaction.  This backend is the reference semantics —
the wheel must match its firing order byte for byte — and the default,
because C-implemented ``heapq`` is very hard to beat until the pending
set grows large and cancel-dominated.

No in-place reschedule: a handle appears in exactly one entry, popped
exactly once, so the hot loop's dead test is a single ``_cancelled``
slot read with no staleness stamp to check.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Optional

from repro.sim.events import EventHandle
from repro.sim.queues.base import COMPACT_MIN_SIZE, EventQueue, QueueEntry


class HeapQueue(EventQueue):
    """Binary heap of ``(time, priority, seq, handle)`` tuples."""

    name = "heap"
    supports_reschedule = False

    def __init__(self) -> None:
        self._entries: List[QueueEntry] = []
        self.live = 0
        self._dead = 0
        self.pool: Optional[List[EventHandle]] = None

    # ------------------------------------------------------------- queueing
    def push(self, time: float, priority: int, seq: int,
             handle: EventHandle) -> None:
        heappush(self._entries, (time, priority, seq, handle))
        self.live += 1

    def pop_next(self, until: Optional[float]) -> Optional[EventHandle]:
        entries = self._entries
        while entries:
            entry = entries[0]
            head = entry[3]
            # Entries are pushed exactly once and popped before firing, so
            # a queued handle can only be pending or cancelled — reading
            # the _cancelled slot directly skips a property call per event.
            if head._cancelled:
                heappop(entries)
                self._note_purged(head)
                entries = self._entries  # compaction may have swapped the list
                continue
            if until is not None and entry[0] > until:
                return None
            heappop(entries)
            self.live -= 1
            return head
        return None

    def peek_time(self) -> Optional[float]:
        entries = self._entries
        while entries and entries[0][3]._cancelled:
            self._note_purged(heappop(entries)[3])
            entries = self._entries  # compaction may have swapped the list
        return entries[0][0] if entries else None

    # ----------------------------------------------------- dead accounting
    def note_cancelled(self) -> None:
        # Called once per cancel — MAC state machines cancel constantly —
        # so the compaction test is inlined rather than a call away.
        self.live -= 1
        self._dead += 1
        entries = self._entries
        if len(entries) > COMPACT_MIN_SIZE and self.live < len(entries) // 2:
            self._maybe_compact()

    def _note_purged(self, head: EventHandle) -> None:
        """A dead entry left through the head; keep pressure consistent."""
        self._dead -= 1
        if head._pooled:
            self._recycle(head)
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        entries = self._entries
        if len(entries) > COMPACT_MIN_SIZE and self.live < len(entries) // 2:
            # Rebuild with pending entries only.  Ordering is unaffected:
            # entries keep their (time, priority, seq) keys.
            pool = self.pool
            if pool is not None:
                for entry in entries:
                    head = entry[3]
                    if head._cancelled and head._pooled:
                        self._recycle(head)
            self._entries = [entry for entry in entries if entry[3].pending]
            heapify(self._entries)
            self._dead = 0

    def __len__(self) -> int:
        return len(self._entries)
