"""Shared MAC machinery: states, statistics, and the station-side plumbing
every protocol in this repository builds on.

The protocol state machines themselves live in :mod:`repro.core.macaw`
(the configurable RTS-CTS exchange that realizes both MACA and MACAW) and
:mod:`repro.mac.csma`.  This module holds what they share:

* :class:`MacState` — the union of Appendix A's five and Appendix B's ten
  protocol states;
* :class:`MacStats` — per-station counters used by tests and experiments;
* :class:`BaseMac` — upper-layer interface (enqueue/deliver/drop callbacks),
  power on/off, random slot draws, and the transmit guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Optional, Tuple

from repro.mac.frames import Frame, FrameType
from repro.mac.timing import MacTiming
from repro.phy.medium import Medium, ReceiverPort, Transmission
from repro.sim.kernel import Simulator
from repro.sim.trace import RecordShape

__all__ = ["MacState", "MacStats", "BaseMac", "POWER_SHAPE", "SEND_SHAPE"]

#: Detail keys of the ``power`` and ``send`` trace records, in the order
#: their values are passed.
POWER_SHAPE = RecordShape(("on",))
SEND_SHAPE = RecordShape(("data_bytes", "dst", "esn", "frame", "kind", "retry", "size", "src"))


class MacState(Enum):
    """Protocol states (Appendix A ∪ Appendix B)."""

    IDLE = "IDLE"
    CONTEND = "CONTEND"
    WFRTS = "WFRTS"
    WFCTS = "WFCTS"
    WFCONTEND = "WFCONTEND"
    SENDDATA = "SendData"
    WFDS = "WFDS"
    WFDATA = "WFData"
    WFACK = "WFACK"
    QUIET = "QUIET"


@dataclass
class MacStats:
    """Counters for one station.  Everything tests and tables read."""

    sent: Dict[FrameType, int] = field(default_factory=dict)
    received: Dict[FrameType, int] = field(default_factory=dict)
    #: Frames that arrived corrupted (collision, capture failure, noise).
    corrupted: int = 0
    #: RTS attempts that drew neither CTS nor ACK.
    cts_timeouts: int = 0
    #: DATA transmissions that drew no ACK.
    ack_timeouts: int = 0
    #: Packets abandoned after max_retries.
    drops: int = 0
    #: Network packets handed to the upper layer.
    delivered: int = 0
    #: Duplicate DATA suppressed by the ESN check.
    duplicates: int = 0
    #: Exchanges completed as sender.
    successes: int = 0
    #: Packets rejected at enqueue (queue full or powered off).
    enqueue_rejected: int = 0
    #: §4 NACK mode: optimistically-completed packets whose outcome was
    #: never learned (the stash was overwritten before a NACK could land).
    silent_losses: int = 0

    def count_sent(self, kind: FrameType) -> None:
        # Keyed by FrameType, read by tests/tables — predates repro.obs and
        # is the model's own bookkeeping, not ad-hoc telemetry.
        self.sent[kind] = self.sent.get(kind, 0) + 1  # repro-lint: allow=REPRO107

    def count_received(self, kind: FrameType) -> None:
        self.received[kind] = self.received.get(kind, 0) + 1  # repro-lint: allow=REPRO107

    def sent_of(self, kind: FrameType) -> int:
        return self.sent.get(kind, 0)

    def received_of(self, kind: FrameType) -> int:
        return self.received.get(kind, 0)


class BaseMac(ReceiverPort):
    """Common station-side plumbing.

    Subclasses implement :meth:`on_frame`, :meth:`enqueue` and their own
    state machines; this base supplies the medium hookup, upper-layer
    callbacks, the per-station random stream, and power control.

    Upper-layer callbacks (all optional):

    * ``on_deliver(payload, src)`` — a network packet arrived for us;
    * ``on_drop(payload, dst)`` — the MAC gave up on a queued packet;
    * ``on_sent(payload, dst)`` — an exchange completed as sender.

    Observability (:mod:`repro.obs`) attaches a per-station probe to
    :attr:`probe`; protocols with a state machine call
    ``probe.note_state(old, new, now)`` on transitions so per-state dwell
    time can be accounted.  The probe surface is read-only — gauges read
    :meth:`queue_len`, :meth:`backoff_value`, :meth:`current_retries` and
    :attr:`stats` at sample time.
    """

    #: Probe label for this MAC flavour (subclasses override).
    protocol_name = "mac"

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        name: str,
        position: Tuple[float, float, float] = (0.0, 0.0, 0.0),
        timing: Optional[MacTiming] = None,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.name = name
        self.position = position
        self.timing = timing if timing is not None else MacTiming(bitrate_bps=medium.bitrate_bps)
        self.stats = MacStats()
        self.powered = True
        self.on_deliver: Optional[Callable[[Any, str], None]] = None
        self.on_drop: Optional[Callable[[Any, str], None]] = None
        self.on_sent: Optional[Callable[[Any, str], None]] = None
        #: Per-station observability probe; None when metrics are off, so
        #: hot paths pay a single ``is not None`` test.
        self.probe: Optional[Any] = None
        medium.attach(self)

    # ------------------------------------------------------------ randomness
    def draw_slots(self, bound: float) -> int:
        """Uniform integer slot count in [1, round(bound)] — the paper's
        contention draw — from this station's private random stream."""
        high = max(1, int(round(bound)))
        return self.sim.streams.uniform_slots(f"mac:{self.name}", 1, high)

    # ----------------------------------------------------------- power state
    def power_off(self) -> None:
        """Turn the radio off (Figure 9): stop hearing, sending, queueing."""
        if not self.powered:
            return
        self.powered = False
        self.sim.trace.record(self.sim.now, "power", self.name, POWER_SHAPE, False)
        self.medium.detach(self)
        self._on_power_change(False)

    def power_on(self) -> None:
        """Re-attach a powered-off radio."""
        if self.powered:
            return
        self.powered = True
        self.sim.trace.record(self.sim.now, "power", self.name, POWER_SHAPE, True)
        self.medium.attach(self)
        self._on_power_change(True)

    def _on_power_change(self, powered: bool) -> None:
        """Hook for subclasses to reset timers/state on power transitions."""

    # ------------------------------------------------------------ transmit
    def send_frame(self, frame: Frame) -> Optional[Transmission]:
        """Put a frame on the air unless we are mid-transmission or off.

        Returns the transmission, or None when sending was impossible —
        callers treat that like any other lost frame (timers recover).
        """
        if not self.powered or self.medium.is_transmitting(self):
            return None
        self.stats.count_sent(frame.kind)
        trace = self.sim.trace
        if trace.enabled:
            # Structured fields feed the conformance sanitizer; the
            # human-readable "frame" string stays for debugging and the
            # existing trace-based tests.
            trace.record(
                self.sim.now, "send", self.name, SEND_SHAPE,
                frame.data_bytes, frame.dst, frame.esn, frame.describe(),
                frame.kind.value, frame.retry, frame.size_bytes, frame.src,
            )
        return self.medium.transmit(self, frame)

    # ------------------------------------------------------------- deliver
    def deliver_up(self, payload: Any, src: str) -> None:
        """Hand a received network packet to the upper layer."""
        self.stats.delivered += 1
        if self.on_deliver is not None:
            self.on_deliver(payload, src)

    def notify_drop(self, payload: Any, dst: str) -> None:
        self.stats.drops += 1
        if self.on_drop is not None:
            self.on_drop(payload, dst)

    def notify_sent(self, payload: Any, dst: str) -> None:
        self.stats.successes += 1
        if self.on_sent is not None:
            self.on_sent(payload, dst)

    # ----------------------------------------------------------- interface
    def enqueue(self, payload: Any, dst: str, size_bytes: int) -> bool:
        """Queue a network packet for transmission.  Subclasses implement."""
        raise NotImplementedError

    def queue_len(self) -> int:
        """Packets currently queued (subclasses override)."""
        return 0

    # -------------------------------------------------------- probe surface
    def backoff_value(self) -> Optional[float]:
        """Current backoff counter, or None for protocols without one."""
        return None

    def current_retries(self) -> int:
        """Retry count of the packet at the head of the queue, if any."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
