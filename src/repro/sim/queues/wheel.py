"""The calendar-queue / timer-wheel backend.

ns-2 answered the same workload MACAW's state machines generate — arm,
extend and cancel a timeout on nearly every frame — with a calendar-queue
scheduler behind a pluggable interface; this is that idea in sparse,
deterministic form:

* time is cut into fixed-width buckets, ``key = int(time / width)``;
* **far** events live in an unsorted per-key list inside a dict — one
  integer multiply, one dict probe, one append: O(1) schedule no matter
  how many events are pending (the heap pays O(log n) here);
* only the **current** bucket is kept as a tiny heap of
  ``(time, priority, seq, handle)`` tuples, so same-instant ordering,
  priorities and in-bucket pops cost O(log b) for bucket occupancy *b*,
  not O(log n);
* a heap of *occupied* bucket keys picks the next bucket to mature, so
  empty expanses of simulated time cost nothing (the dict is sparse —
  there is no ring to walk).

**Determinism.**  Bucket boundaries partition time monotonically
(``int(t / w)`` is non-decreasing in ``t``), future buckets only hold
keys strictly greater than the current one, and events scheduled at or
before the current bucket's range go straight into the current heap —
so delivery is exactly ascending ``(time, priority, seq)``: byte-for-byte
the heap backend's firing order on every seed.

**Cancel and reschedule.**  Cancellation is lazy (the entry dies in
place).  Reschedule — the :class:`~repro.sim.timers.Timer` rearm fast
path — gives the live handle a fresh ``seq`` and pushes one new entry;
the old entry's stored ``seq`` no longer matches the handle's, marking it
stale with no search, no removal, no sift: O(1).  Dead entries (cancelled
or stale) are filtered when their bucket matures, purged when they
surface at the head, and swept wholesale when the queue falls below half
live (same pressure rule as the heap).

The default bucket width (~5 ms) is a few contention slots at the
paper's 256 kbps — wide enough that an exchange's control traffic lands
in one or two buckets, narrow enough that long defer/backoff timers
spread across buckets instead of piling into one.  See DESIGN.md §7 for
tuning notes (``"wheel:WIDTH"`` selects an explicit width).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional

from repro.sim.events import EventHandle
from repro.sim.queues.base import COMPACT_MIN_SIZE, EventQueue, QueueEntry

#: Default bucket width in simulated seconds (~5 contention slots at the
#: paper's 256 kbps radio).
DEFAULT_BUCKET_WIDTH = 0.005

#: Bucket key for times whose key computation leaves float range
#: (``float('inf')`` sentinels, or astronomically large time × a tiny
#: bucket width).  Strictly greater than any finite key — the largest
#: finite float is < 2**1024 and keys are ``int(time / width)`` — so the
#: far bucket matures last and in-bucket ``(time, priority, seq)``
#: ordering keeps delivery byte-identical to the heap backend.
FAR_KEY = 1 << 1100


class WheelQueue(EventQueue):
    """Sparse calendar queue: dict buckets + a current-bucket heap."""

    name = "wheel"
    supports_reschedule = True

    def __init__(self, bucket_width: float = DEFAULT_BUCKET_WIDTH) -> None:
        if bucket_width <= 0:
            raise ValueError(f"bucket width must be > 0, got {bucket_width!r}")
        self.bucket_width = bucket_width
        self._inv_width = 1.0 / bucket_width
        #: Heapified entries of every bucket with key <= _cur_key.
        self._cur: List[QueueEntry] = []
        self._cur_key = 0
        #: Future buckets: key -> unsorted entry list (append-only).
        self._buckets: Dict[int, List[QueueEntry]] = {}
        #: Heap of occupied future bucket keys (unique by construction).
        self._keys: List[int] = []
        self._size = 0
        self.live = 0
        self._dead = 0
        self.pool: Optional[List[EventHandle]] = None

    # ------------------------------------------------------------- queueing
    def push(self, time: float, priority: int, seq: int,
             handle: EventHandle) -> None:
        try:
            key = int(time * self._inv_width)
        except (OverflowError, ValueError):
            # inf (the heap backend happily queues a far-future sentinel
            # at float('inf'); backends must be interchangeable) or a
            # finite time × tiny width overflowing float range.  Park it
            # in the single far-future bucket — zero cost on the hot
            # path, since try/except is free when nothing raises.
            key = FAR_KEY
        if key <= self._cur_key:
            # Current-range (and same-instant / call_soon) events join the
            # sorted head directly, preserving global order.
            heappush(self._cur, (time, priority, seq, handle))
        else:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [(time, priority, seq, handle)]
                heappush(self._keys, key)
            else:
                bucket.append((time, priority, seq, handle))
        self._size += 1
        self.live += 1

    def _advance(self) -> bool:
        """Mature the next occupied bucket into the current heap.

        Dead entries are filtered while loading (their bucket never gets
        heapified around them); returns False when no events remain.
        """
        while self._keys:
            key = heappop(self._keys)
            bucket = self._buckets.pop(key, None)
            self._cur_key = key
            if bucket is None:
                continue  # emptied by compaction
            alive: List[QueueEntry] = []
            for entry in bucket:
                head = entry[3]
                if head.seq == entry[2] and not head._cancelled:
                    alive.append(entry)
                else:
                    self._dead -= 1
                    self._size -= 1
                    if head._cancelled and head.seq == entry[2] and head._pooled:
                        self._recycle(head)
            if alive:
                heapify(alive)
                self._cur = alive
                return True
        return False

    def pop_next(self, until: Optional[float]) -> Optional[EventHandle]:
        cur = self._cur
        while True:
            if not cur:
                if not self._advance():
                    return None
                cur = self._cur
                continue
            entry = cur[0]
            head = entry[3]
            if head._cancelled or head.seq != entry[2]:
                heappop(cur)
                self._note_purged(entry[2], head)
                cur = self._cur  # compaction may have swapped the heap
                continue
            if until is not None and entry[0] > until:
                return None
            heappop(cur)
            self._size -= 1
            self.live -= 1
            return head

    def peek_time(self) -> Optional[float]:
        cur = self._cur
        while True:
            if not cur:
                if not self._advance():
                    return None
                cur = self._cur
                continue
            entry = cur[0]
            head = entry[3]
            if head._cancelled or head.seq != entry[2]:
                heappop(cur)
                self._note_purged(entry[2], head)
                cur = self._cur  # compaction may have swapped the heap
                continue
            return entry[0]

    # --------------------------------------------------------- rescheduling
    def reschedule(self, handle: EventHandle, time: float, priority: int,
                   seq: int) -> None:
        # Stamp the handle's new key FIRST: compaction (and the purge
        # paths) decide entry liveness by ``entry seq == handle.seq``, so
        # the handle must already name the entry about to be pushed —
        # otherwise a sweep triggered below would keep the old entry and
        # drop the new one, silently losing the event.
        handle.time = time
        handle.priority = priority
        handle.seq = seq
        # The entry under the handle's *old* seq is now stale-in-place;
        # push() re-counts the handle as live, so net live is unchanged.
        self.live -= 1
        self._dead += 1
        self.push(time, priority, seq, handle)
        self._maybe_compact()

    # ----------------------------------------------------- dead accounting
    def note_cancelled(self) -> None:
        # Called once per cancel; the compaction test is inlined.
        self.live -= 1
        self._dead += 1
        if self._size > COMPACT_MIN_SIZE and self.live < self._size // 2:
            self._compact()

    def _note_purged(self, entry_seq: int, head: EventHandle) -> None:
        self._dead -= 1
        self._size -= 1
        # Recycle only on the handle's current placement: stale entries
        # (seq moved on) may belong to a handle that is alive elsewhere.
        if head._cancelled and head.seq == entry_seq and head._pooled:
            self._recycle(head)
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        if self._size > COMPACT_MIN_SIZE and self.live < self._size // 2:
            self._compact()

    def _compact(self) -> None:
        def keep(entry: QueueEntry) -> bool:
            head = entry[3]
            if head.seq == entry[2] and not head._cancelled:
                return not head._fired
            if head._cancelled and head.seq == entry[2] and head._pooled:
                self._recycle(head)
            return False

        cur = [entry for entry in self._cur if keep(entry)]
        heapify(cur)
        self._cur = cur
        buckets: Dict[int, List[QueueEntry]] = {}
        for key, bucket in self._buckets.items():
            alive = [entry for entry in bucket if keep(entry)]
            if alive:
                buckets[key] = alive
        self._buckets = buckets
        self._keys = list(buckets)
        heapify(self._keys)
        self._size = len(cur) + sum(len(b) for b in buckets.values())
        self._dead = 0

    def __len__(self) -> int:
        return self._size
