"""The event-queue backend interface.

The kernel (:class:`repro.sim.kernel.Simulator`) owns the clock, the
fired-event counter and the callback dispatch; *which data structure
holds the pending events* is this interface.  Two backends ship:

* :class:`~repro.sim.queues.heap.HeapQueue` — the classic binary heap of
  ``(time, priority, seq, handle)`` tuples (the default, and the
  reference semantics);
* :class:`~repro.sim.queues.wheel.WheelQueue` — a sparse calendar
  queue / timer wheel with O(1) amortized schedule and cancel, built for
  the MAC workload where nearly every frame arms, extends or cancels a
  timeout.

**Determinism contract.**  A backend must deliver live events in exactly
ascending ``(time, priority, seq)`` order — the order the heap produces —
so that ``events_fired`` and ``Trace.digest()`` are byte-identical on
every seed regardless of backend.  ``seq`` values are globally unique and
assigned at schedule (and re-assigned at reschedule) time, so the order
is total.

**Dead-entry accounting.**  Cancellation is lazy everywhere: a cancelled
(or, for backends with in-place reschedule, *stale*) entry stays queued
and is skipped when it surfaces.  The backend tracks its own dead count —
fed by :meth:`note_cancelled` / :meth:`reschedule`, drained by head
purges and compaction — so every pop path (``run``, ``step``, ``peek``)
maintains the same compaction pressure.  When a queue larger than
:data:`COMPACT_MIN_SIZE` falls below half live, the backend sweeps dead
entries out, bounding the weight long timer-heavy runs carry.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, List, Optional, Tuple

from repro.sim.events import EventHandle

#: Compact when the structure holds more than this many entries and fewer
#: than half of them are live.  Small enough to bound memory on
#: cancel-heavy workloads, large enough that compaction never shows up on
#: short runs.
COMPACT_MIN_SIZE = 512

#: Upper bound on the simulator's handle free list: enough to cover every
#: timer a large cell keeps in flight, small enough that a burst of
#: cancellations cannot pin memory forever.
POOL_MAX = 1024

#: A queued event: C-level tuple comparisons order the structure, and the
#: embedded ``seq`` doubles as the staleness stamp for backends that
#: support in-place reschedule (a handle whose ``seq`` moved on leaves the
#: old entry dead in place).
QueueEntry = Tuple[float, int, int, EventHandle]


class EventQueue(ABC):
    """Pending-event store: ascending ``(time, priority, seq)`` delivery.

    Attributes
    ----------
    live:
        Number of queued events that are still due to fire.  Maintained
        in O(1); this is what :meth:`Simulator.pending_count` reports.
    pool:
        Optional free-list the backend drops dead *pooled* handles into
        when it purges their entries (see
        :class:`~repro.sim.events.EventHandle` pooling).  Set by the
        owning simulator; backends must only recycle a handle whose
        popped entry carries its current ``seq`` — that entry is the
        handle's single live placement, so the recycle happens exactly
        once.
    """

    #: Registry name of the backend (``"heap"``, ``"wheel"``).
    name: ClassVar[str] = ""
    #: True when :meth:`reschedule` moves a live handle without a new
    #: entry allocation dance; the kernel's rearm fast path keys off it.
    supports_reschedule: ClassVar[bool] = False

    live: int
    pool: Optional[List[EventHandle]]

    @abstractmethod
    def push(self, time: float, priority: int, seq: int,
             handle: EventHandle) -> None:
        """Queue one event.  The kernel has already validated ``time``."""

    @abstractmethod
    def pop_next(self, until: Optional[float]) -> Optional[EventHandle]:
        """Remove and return the next live handle with ``time <= until``.

        Returns None when the queue is drained or the head lies beyond
        ``until`` (the head then stays queued).  Dead entries surfacing
        at the head are purged — and accounted — along the way.
        """

    @abstractmethod
    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None.  Purges dead heads."""

    @abstractmethod
    def note_cancelled(self) -> None:
        """One queued event was cancelled (lazy: its entry stays put)."""

    def reschedule(self, handle: EventHandle, time: float, priority: int,
                   seq: int) -> None:
        """Move a live handle to a new ``(time, priority, seq)`` key.

        Only called when :attr:`supports_reschedule` is True.  The old
        entry — identified by the handle's previous ``seq`` — becomes
        dead in place.  The backend MUST assign the handle's ``time``,
        ``priority`` and ``seq`` fields to the new key *before* any
        internal compaction or purge can run: liveness is decided by
        ``entry seq == handle.seq``, so exactly one entry has to match
        the handle at every observable moment or a sweep mid-reschedule
        keeps the stale entry and silently drops the event.
        """
        raise NotImplementedError(f"{self.name or type(self).__name__} "
                                  "does not support in-place reschedule")

    @abstractmethod
    def __len__(self) -> int:
        """Total queued entries, dead ones included."""

    def _recycle(self, handle: EventHandle) -> None:
        """Return a purged pooled handle to the simulator's free list."""
        pool = self.pool
        if pool is not None and len(pool) < POOL_MAX:
            pool.append(handle)
