"""The MACAW media access protocol (Appendix B), as a configurable machine.

One state machine implements the whole design-space the paper explores.
With every flag enabled it is MACAW: the RTS-CTS-DS-DATA-ACK exchange,
RRTS receiver-initiated contention, MILD backoff with copying and
per-destination estimates, and per-stream queues.  With every flag disabled
it is exactly Appendix A's MACA: RTS-CTS-DATA with a single BEB counter and
a single FIFO.  Each of the paper's tables compares two settings of one
flag, so building both protocols from one machine guarantees the comparison
isolates the intended mechanism.

State machine summary (sender left, receiver right)::

      CONTEND --RTS--> WFCTS           IDLE --RTS--> (CTS) --> WFDS
      WFCTS --CTS--> SendData           WFDS --DS--> WFData
      SendData: DS, DATA  --> WFACK     WFData --DATA--> (ACK) --> IDLE
      WFACK --ACK--> IDLE

Deferral: overheard RTS defers until the CTS slot passes; overheard CTS
defers for the DATA (+DS/ACK); overheard DS defers until the ACK slot has
passed; overheard RRTS defers two slots.  A station that receives an RTS it
cannot answer (because it is deferring) remembers the sender and, when the
medium frees, contends to send an RRTS on the sender's behalf (§3.3.3).

Implementation notes (documented deviations are listed in DESIGN.md):

* Defer information arriving mid-exchange (e.g. in WFCTS) is recorded but
  does not preempt the exchange; the appendix's strict rule-precedence
  would abandon exchanges that usually still complete.
* Appendix B's timeout rule 2 sends the RRTS and "goes to WFDATA"; we go to
  WFRTS, which rule 12 then services — the WFDATA reading leaves WFRTS
  unreachable and is evidently a typo.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

from repro.core.backoff import BackoffBook
from repro.core.config import MACAW_CONFIG, ProtocolConfig
from repro.core.streams import QueuedPacket, StreamQueue
from repro.mac.base import BaseMac, MacState
from repro.mac.frames import (
    Frame,
    FrameType,
    MULTICAST,
    control_frame,
    data_frame,
)
from repro.mac.timing import MacTiming
from repro.phy.medium import Medium, Transmission
from repro.sim.kernel import Simulator
from repro.sim.timers import Timer
from repro.sim.trace import RecordShape

#: Detail keys of a ``state`` trace record, in the order its values are passed.
STATE_SHAPE = RecordShape(("frm", "to"))


class MacawMac(BaseMac):
    """A station running the (configurable) MACAW protocol."""

    protocol_name = "macaw"

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        name: str,
        position: Tuple[float, float, float] = (0.0, 0.0, 0.0),
        config: ProtocolConfig = MACAW_CONFIG,
        timing: Optional[MacTiming] = None,
        queue_capacity: Optional[int] = 64,
    ) -> None:
        super().__init__(sim, medium, name, position, timing)
        self.config = config
        self.backoff = BackoffBook(config)
        self.queue = StreamQueue(multi=config.multi_queue, capacity=queue_capacity)
        self.state = MacState.IDLE
        #: End of the current defer period (stations never transmit before it).
        self.quiet_until = 0.0

        self._state_timer = Timer(sim, self._on_state_timeout, name=f"{name}:state")
        self._contend_timer = Timer(sim, self._on_contention_fire, name=f"{name}:contend")
        self._quiet_timer = Timer(sim, self._on_quiet_expired, name=f"{name}:quiet")

        # Sender-side context.
        self._current: Optional[QueuedPacket] = None
        self._contend_choice: Optional[Tuple[str, Any]] = None  # ("data", entry) | ("rrts", src, bytes)
        #: Remaining contention delay frozen by a defer (defer_resume mode).
        self._contend_remaining: Optional[float] = None
        self._next_esn: Dict[str, int] = {}

        # Receiver-side context: (peer, data_bytes, esn, no_ack_request).
        self._peer: Optional[Tuple[str, int, Optional[int], bool]] = None
        #: Last DATA esn acknowledged, per sender (control rule 7 dedup).
        self._acked_esn: Dict[str, int] = {}
        #: All DATA esns received per sender (piggyback confirmation can be
        #: queried out of order once resurrections reorder the stream).
        self._received_esns: Dict[str, Set[int]] = {}
        #: §4 extensions: packets completed optimistically (piggyback ACK
        #: or NACK mode) awaiting confirmation, per destination.
        self._unconfirmed: Dict[str, QueuedPacket] = {}
        #: Whether the in-progress exchange's RTS carried no_ack_request.
        self._current_no_ack = False

        #: First RTS we could not answer while deferring: (src, data_bytes).
        self._pending_rrts: Optional[Tuple[str, int]] = None

    # ======================================================== upper layer
    def enqueue(self, payload: Any, dst: str, size_bytes: int) -> bool:
        """Queue a network packet for ``dst`` (a MAC name or MULTICAST)."""
        if not self.powered:
            self.stats.enqueue_rejected += 1
            return False
        entry = self.queue.push(payload, dst, size_bytes, self.sim.now)
        if entry is None:
            self.stats.enqueue_rejected += 1
            return False
        if self.state is MacState.IDLE:
            self._maybe_contend()
        return True

    def queue_len(self) -> int:
        return len(self.queue)

    # -------------------------------------------------------- probe surface
    def backoff_value(self) -> Optional[float]:
        """Current local backoff counter F(station) — the Table 2 signal."""
        return self.backoff.my_backoff

    def current_retries(self) -> int:
        entry = self._current
        return entry.retries if entry is not None else 0

    def _on_power_change(self, powered: bool) -> None:
        self._state_timer.stop()
        self._contend_timer.stop()
        self._quiet_timer.stop()
        self.state = MacState.IDLE
        self._current = None
        self._contend_choice = None
        self._contend_remaining = None
        self._peer = None
        self._pending_rrts = None
        self._unconfirmed.clear()
        self._current_no_ack = False
        self.quiet_until = 0.0
        if powered and not self.queue.is_empty():
            self._maybe_contend()

    # ========================================================== contention
    def _deferring(self) -> bool:
        return self.sim.now < self.quiet_until

    def _has_work(self) -> bool:
        return not self.queue.is_empty() or self._pending_rrts is not None

    def _maybe_contend(self) -> None:
        """Move from a completed/aborted exchange toward the next one."""
        if not self.powered:
            # A dead radio must never contend.  Reachable only through a
            # callback that slipped past the power-off reset (the medium
            # guards transmit-complete, but belt-and-braces here).
            return
        if not self._has_work():
            self._set_state(MacState.IDLE)
            return
        if self._deferring():
            self._enter_quiet()
            return
        if (
            self._contend_remaining is not None
            and self._contend_choice is not None
            and self._pending_rrts is None
        ):
            # Resume the countdown a defer interrupted (defer_resume mode):
            # the station keeps its place in line rather than re-rolling.
            remaining = self._contend_remaining
            self._contend_remaining = None
            self._set_state(MacState.CONTEND)
            self._contend_timer.start(remaining)
            return
        self._contend_remaining = None
        self._enter_contend()

    def _enter_quiet(self) -> None:
        self._set_state(MacState.WFCONTEND if self._has_work() else MacState.QUIET)
        self._quiet_timer.extend_to(self.quiet_until)

    def _enter_contend(self) -> None:
        """Draw per-candidate retry slots and arm the earliest (§3.2).

        Candidates are the head packet of each eligible stream plus, when
        RRTS is enabled, the pending receiver-initiated contention.  Each
        draws uniformly in [1, BO(candidate)]; the earliest slot wins.
        """
        self._set_state(MacState.CONTEND)
        self._contend_remaining = None
        best_slots: Optional[int] = None
        choice: Optional[Tuple[str, Any]] = None
        if self._pending_rrts is not None and self.config.use_rrts:
            src, data_bytes = self._pending_rrts
            slots = self.draw_slots(self.backoff.contention_backoff(src))
            best_slots, choice = slots, ("rrts", src, data_bytes)
        for entry in self.queue.candidates():
            dst = None if entry.dst == MULTICAST else entry.dst
            slots = self.draw_slots(
                self.backoff.contention_backoff(dst, retries=entry.retries)
            )
            if best_slots is None or slots < best_slots:
                best_slots, choice = slots, ("data", entry)
        if choice is None:  # no work after all
            self._set_state(MacState.IDLE)
            return
        self._contend_choice = choice
        delay = best_slots * self.timing.slot
        if self.config.contention_jitter > 0.0:
            # Stations share no slot clock; phase jitter makes near-miss
            # draws physically overlap (see ProtocolConfig).
            u = self.sim.streams.get(f"mac:{self.name}").random()
            delay += u * self.config.contention_jitter * self.timing.slot
        self._contend_timer.start(delay)

    def _on_contention_fire(self) -> None:
        if self.state is not MacState.CONTEND or self._contend_choice is None:
            return
        if self._deferring():  # defensive: a defer should have moved us out
            self._enter_quiet()
            return
        if self.config.carrier_sense and self.medium.carrier_sensed(self):
            # §3.3.2's CSMA/CA alternative to DS: hold the RTS until one
            # slot after the carrier clears (realized as a short defer and
            # a fresh contention draw).
            self._defer_for(2 * self.timing.slot)
            return
        choice = self._contend_choice
        self._contend_choice = None
        if choice[0] == "rrts":
            _, src, data_bytes = choice
            self._pending_rrts = None
            self._send_rrts(src, data_bytes)
        else:
            self._start_exchange(choice[1])

    # ====================================================== sender side
    def _start_exchange(self, entry: QueuedPacket) -> None:
        if entry.dst == MULTICAST:
            self._start_multicast(entry)
            return
        if entry.esn is None:
            entry.esn = self._next_esn.get(entry.dst, 0)
            self._next_esn[entry.dst] = entry.esn + 1
            self.backoff.begin_attempt(entry.dst)
        self._current = entry
        local, remote = self.backoff.fields_for(entry.dst)
        # §4 piggyback: while more packets are queued for this stream, tell
        # the receiver we will read the acknowledgement off its next CTS.
        no_ack_request = (
            self.config.use_ack
            and self.config.ack_variant == "piggyback"
            and self.queue.depth_by_stream().get(entry.dst, 0) > 1
        )
        pending = self._unconfirmed.get(entry.dst)
        rts = control_frame(
            FrameType.RTS,
            self.name,
            entry.dst,
            data_bytes=entry.size_bytes,
            local_backoff=local,
            remote_backoff=remote,
            esn=entry.esn,
            retry=entry.retries > 0,
            no_ack_request=no_ack_request,
            # Ask the receiver to confirm the previous optimistic packet.
            ack_esn=pending.esn if pending is not None else None,
        )
        self._current_no_ack = no_ack_request
        if self.send_frame(rts) is None:
            # Could not transmit (mid-send); treat as an immediate miss.
            self._current = None
            self._maybe_contend()
            return
        self._set_state(MacState.WFCTS)
        # The CTS timer starts when our RTS leaves the air (transmit-complete).

    def _start_multicast(self, entry: QueuedPacket) -> None:
        """§3.3.4: multicast is RTS followed immediately by DATA; overhearers
        of the RTS defer for the DATA length, and there is no CTS or ACK."""
        self._current = entry
        local, remote = self.backoff.fields_for(None)
        rts = control_frame(
            FrameType.RTS,
            self.name,
            MULTICAST,
            data_bytes=entry.size_bytes,
            local_backoff=local,
            remote_backoff=remote,
        )
        if self.send_frame(rts) is None:
            self._current = None
            self._maybe_contend()
            return
        self._set_state(MacState.SENDDATA)

    def _send_rrts(self, dst: str, data_bytes: int) -> None:
        local, remote = self.backoff.fields_for(dst)
        rrts = control_frame(
            FrameType.RRTS,
            self.name,
            dst,
            data_bytes=data_bytes,
            local_backoff=local,
            remote_backoff=remote,
        )
        if self.send_frame(rrts) is None:
            self._maybe_contend()
            return
        self._set_state(MacState.WFRTS)

    def on_transmit_complete(self, transmission: Transmission) -> None:
        kind = transmission.frame.kind
        if kind is FrameType.RTS:
            if transmission.frame.is_multicast:
                self._transmit_current_data()
            elif self.state is MacState.WFCTS:
                if self.config.cts_timeout_slots is not None:
                    self._state_timer.start(
                        self.config.cts_timeout_slots * self.timing.slot
                    )
                else:
                    self._state_timer.start(self.timing.cts_timeout())
        elif kind is FrameType.RRTS:
            if self.state is MacState.WFRTS:
                self._state_timer.start(self.timing.rts_timeout())
        elif kind is FrameType.CTS:
            if self.state is MacState.WFDS:
                self._state_timer.start(self.timing.ds_timeout())
            elif self.state is MacState.WFDATA and self._peer is not None:
                self._state_timer.start(self.timing.data_timeout(self._peer[1]))
        elif kind is FrameType.DS:
            self._transmit_current_data()
        elif kind is FrameType.DATA:
            self._after_data_sent(transmission.frame)
        elif kind is FrameType.ACK:
            if self.state is MacState.IDLE:
                self._maybe_contend()

    def _transmit_current_data(self) -> None:
        entry = self._current
        if entry is None:  # exchange aborted meanwhile
            return
        dst = entry.dst
        local, remote = self.backoff.fields_for(None if dst == MULTICAST else dst)
        frame = data_frame(
            self.name,
            dst,
            entry.size_bytes,
            payload=entry.payload,
            local_backoff=local,
            remote_backoff=remote,
            esn=entry.esn,
        )
        if self.send_frame(frame) is None:
            self._fail_attempt()
            return
        self._set_state(MacState.SENDDATA)

    def _after_data_sent(self, frame: Frame) -> None:
        entry = self._current
        if entry is None:
            return
        if frame.is_multicast:
            self._finalize_success()
        elif self.config.use_ack and not self._current_no_ack:
            self._set_state(MacState.WFACK)
            self._state_timer.start(self.timing.ack_timeout())
        elif self.config.use_ack or self.config.use_nack:
            # §4 optimistic completion: no immediate confirmation expected.
            # Keep the packet so a later piggyback mismatch or a NACK can
            # resurrect it.  In NACK mode an overwritten stash is a packet
            # whose NACK (if any) we missed — best-effort by design.
            if entry.dst in self._unconfirmed and self.config.use_nack:
                self.stats.silent_losses += 1
            self._unconfirmed[entry.dst] = entry
            self._finalize_success()
        else:
            # Without a link ACK the sender learns nothing more; the
            # exchange is complete from the MAC's point of view (§2.3).
            self._finalize_success()

    def _finalize_success(self) -> None:
        entry = self._current
        assert entry is not None
        self._current = None
        dst = None if entry.dst == MULTICAST else entry.dst
        self.backoff.on_success(dst)
        self.queue.pop(entry)
        self.notify_sent(entry.payload, entry.dst)
        self._set_state(MacState.IDLE)
        self._maybe_contend()

    def _fail_attempt(self) -> None:
        """An attempt produced no reply: back off, maybe give up, re-contend."""
        entry = self._current
        assert entry is not None
        self._current = None
        entry.retries += 1
        dst = None if entry.dst == MULTICAST else entry.dst
        if entry.retries >= self.config.max_retries:
            self.backoff.on_give_up(dst)
            self.queue.pop(entry)
            self.notify_drop(entry.payload, entry.dst)
            # Any optimistically-completed packet for this destination can
            # no longer be confirmed; let it go.
            self._unconfirmed.pop(entry.dst, None)
        else:
            self.backoff.on_timeout(dst, entry.retries)
        self._set_state(MacState.IDLE)
        self._maybe_contend()

    # ====================================================== receiver side
    def _respond_cts(self, frame: Frame) -> None:
        self._state_timer.stop()  # we may arrive here from WFRTS
        self._contend_timer.stop()
        self._contend_choice = None
        self._contend_remaining = None
        self._peer = (frame.src, frame.data_bytes, frame.esn, frame.no_ack_request)
        local, remote = self.backoff.fields_for(frame.src)
        # §4 piggyback: answer the sender's confirmation query — echo the
        # queried ESN iff that packet actually arrived here.
        query = frame.ack_esn
        confirmed = (
            query is not None and query in self._received_esns.get(frame.src, ())
        )
        cts = control_frame(
            FrameType.CTS,
            self.name,
            frame.src,
            data_bytes=frame.data_bytes,
            local_backoff=local,
            remote_backoff=remote,
            esn=frame.esn,
            ack_esn=query if confirmed else None,
        )
        if self.send_frame(cts) is None:
            self._peer = None
            self._maybe_contend()
            return
        self._set_state(MacState.WFDS if self.config.use_ds else MacState.WFDATA)
        # Timer armed when the CTS finishes transmitting.

    def _send_ack(self, dst: str, esn: Optional[int]) -> None:
        local, remote = self.backoff.fields_for(dst)
        ack = control_frame(
            FrameType.ACK,
            self.name,
            dst,
            local_backoff=local,
            remote_backoff=remote,
            esn=esn,
        )
        self.send_frame(ack)

    # ========================================================== reception
    def on_frame(self, frame: Frame, clean: bool) -> None:
        if not clean:
            self.stats.corrupted += 1
            return
        self.stats.count_received(frame.kind)
        self.backoff.on_frame_heard(frame, addressed_to_me=frame.dst == self.name)
        if frame.dst == self.name:
            self._handle_addressed(frame)
        elif frame.is_multicast:
            self._handle_multicast(frame)
        else:
            self._handle_overheard(frame)

    # -------------------------------------------------------- addressed
    def _handle_addressed(self, frame: Frame) -> None:
        kind = frame.kind
        if kind is FrameType.RTS:
            self._on_rts(frame)
        elif kind is FrameType.CTS:
            self._on_cts(frame)
        elif kind is FrameType.DS:
            self._on_ds(frame)
        elif kind is FrameType.DATA:
            self._on_data(frame)
        elif kind is FrameType.ACK:
            self._on_ack(frame)
        elif kind is FrameType.RRTS:
            self._on_rrts(frame)
        elif kind is FrameType.NACK:
            self._on_nack(frame)

    def _on_rts(self, frame: Frame) -> None:
        answerable = self.state in (MacState.IDLE, MacState.CONTEND, MacState.WFRTS)
        if answerable and not self._deferring():
            # Control rule 7: an RTS that re-requests data we already
            # acknowledged gets the ACK again instead of a CTS.
            if (
                self.config.use_ack
                and frame.esn is not None
                and (
                    self._acked_esn.get(frame.src) == frame.esn
                    or frame.esn in self._received_esns.get(frame.src, ())
                )
            ):
                self._contend_timer.stop()
                self._contend_choice = None
                self._contend_remaining = None
                self._send_ack(frame.src, frame.esn)
                self._set_state(MacState.IDLE)
                return
            self._respond_cts(frame)
            return
        if self.state in (MacState.QUIET, MacState.WFCONTEND) or (
            answerable and self._deferring()
        ):
            # Control rule 9 / §3.3.3: remember the first unanswerable RTS
            # and contend on the sender's behalf once the medium frees.
            if self.config.use_rrts and self._pending_rrts is None:
                self._pending_rrts = (frame.src, frame.data_bytes)
                if self.state in (MacState.QUIET, MacState.WFCONTEND):
                    self._set_state(MacState.WFCONTEND)
        # Mid-exchange states ignore the RTS; the sender's timer recovers.

    def _reconcile_unconfirmed(self, cts: Frame) -> None:
        """§4 piggyback: the CTS's ack field settles the previous packet.

        A mismatch means the optimistically-completed DATA never arrived;
        the packet returns to the head of its stream (it will be delivered
        after the exchange now in progress — a one-packet reordering the
        transports tolerate).
        """
        if not self.config.use_ack:
            return  # NACK-mode stashes are settled by NACKs, not CTS frames
        stale = self._unconfirmed.pop(cts.src, None)
        if stale is None:
            return
        confirmed = cts.ack_esn is not None and cts.ack_esn == stale.esn
        if not confirmed:
            stale.retries += 1
            if stale.retries >= self.config.max_retries:
                self.notify_drop(stale.payload, stale.dst)
            else:
                # Head of line again; the exchange now in progress (for the
                # packet behind it) still completes its own entry — queue
                # removal is by identity.
                self.queue.push_front(stale)

    def _on_cts(self, frame: Frame) -> None:
        self._reconcile_unconfirmed(frame)
        entry = self._current
        if (
            self.state is MacState.WFCTS
            and entry is not None
            and frame.src == entry.dst
            and (frame.esn is None or frame.esn == entry.esn)
        ):
            self._state_timer.stop()
            if self.config.use_ds:
                local, remote = self.backoff.fields_for(entry.dst)
                ds = control_frame(
                    FrameType.DS,
                    self.name,
                    entry.dst,
                    data_bytes=entry.size_bytes,
                    local_backoff=local,
                    remote_backoff=remote,
                    esn=entry.esn,
                )
                if self.send_frame(ds) is None:
                    self._fail_attempt()
                    return
                self._set_state(MacState.SENDDATA)
            else:
                self._transmit_current_data()

    def _on_ds(self, frame: Frame) -> None:
        if (
            self.state is MacState.WFDS
            and self._peer is not None
            and frame.src == self._peer[0]
        ):
            self._state_timer.stop()
            self._set_state(MacState.WFDATA)
            self._state_timer.start(self.timing.data_timeout(self._peer[1]))

    def _on_data(self, frame: Frame) -> None:
        if (
            self.state is not MacState.WFDATA
            or self._peer is None
            or frame.src != self._peer[0]
        ):
            return
        self._state_timer.stop()
        peer_name, _, _, no_ack_request = self._peer
        self._peer = None
        received = self._received_esns.setdefault(frame.src, set())
        duplicate = frame.esn is not None and (
            self._acked_esn.get(frame.src) == frame.esn or frame.esn in received
        )
        if duplicate:
            self.stats.duplicates += 1
        else:
            if frame.esn is not None:
                self._acked_esn[frame.src] = frame.esn
                received.add(frame.esn)
                if len(received) > 256:
                    # ESNs are monotone per stream; forget the distant past.
                    for old in sorted(received)[:128]:
                        received.discard(old)
            self.deliver_up(frame.payload, frame.src)
        self._set_state(MacState.IDLE)
        if self.config.use_ack and not no_ack_request:
            self._send_ack(peer_name, frame.esn)
            # _maybe_contend runs when the ACK finishes transmitting.
        else:
            # Piggyback mode: the acknowledgement rides on our next CTS
            # to this sender (the _acked_esn update above).
            self._maybe_contend()

    def _on_ack(self, frame: Frame) -> None:
        entry = self._current
        if entry is None or frame.src != entry.dst:
            return
        if frame.esn is not None and frame.esn != entry.esn:
            return
        if self.state is MacState.WFACK:
            self._state_timer.stop()
            self._finalize_success()
        elif self.state is MacState.WFCTS:
            # Rule 7 response path: the receiver had our data all along.
            self._state_timer.stop()
            self._finalize_success()

    def _on_nack(self, frame: Frame) -> None:
        """§4 NACK extension: the receiver's CTS drew no clean DATA from
        us — resurrect the optimistically-completed packet."""
        if not self.config.use_nack:
            return
        stale = self._unconfirmed.get(frame.src)
        if stale is None or (frame.esn is not None and frame.esn != stale.esn):
            return
        del self._unconfirmed[frame.src]
        stale.retries += 1
        if stale.retries >= self.config.max_retries:
            self.notify_drop(stale.payload, stale.dst)
            return
        self.queue.push_front(stale)
        if self.state is MacState.IDLE:
            self._maybe_contend()

    def _on_rrts(self, frame: Frame) -> None:
        """Rule 13: answer an RRTS with an immediate RTS for that stream."""
        if not self.config.use_rrts:
            return
        if self.state not in (MacState.IDLE, MacState.CONTEND):
            return
        if self._deferring():
            return
        entry = self.queue.head_for(frame.src)
        if entry is None:
            return
        self._contend_timer.stop()
        self._contend_choice = None
        self._contend_remaining = None
        self._start_exchange(entry)

    # -------------------------------------------------------- multicast
    def _handle_multicast(self, frame: Frame) -> None:
        if frame.kind is FrameType.RTS:
            self._defer_for(self.timing.defer_after_multicast_rts(frame.data_bytes))
        elif frame.kind is FrameType.DATA:
            self.deliver_up(frame.payload, frame.src)

    # -------------------------------------------------------- overheard
    def _handle_overheard(self, frame: Frame) -> None:
        kind = frame.kind
        timing = self.timing
        if kind is FrameType.RTS:
            if self.config.rts_defer_full_exchange:
                self._defer_for(timing.defer_full_exchange(frame.data_bytes))
            else:
                self._defer_for(timing.defer_after_rts())
        elif kind is FrameType.CTS:
            self._defer_for(
                timing.defer_after_cts(
                    frame.data_bytes, self.config.use_ds, self.config.use_ack
                )
            )
        elif kind is FrameType.DS:
            self._defer_for(timing.defer_after_ds(frame.data_bytes, self.config.use_ack))
        elif kind is FrameType.RRTS:
            self._defer_for(timing.defer_after_rrts())
        # Overheard DATA and ACK frames impose no further deferral: the
        # airtime itself kept us silent (we were receiving, not contending).

    def _defer_for(self, span: float) -> None:
        """Extend the quiet horizon; preempt IDLE/CONTEND immediately.

        Mid-exchange states only record the horizon: the exchange runs to
        completion (or timeout) and the defer is honoured afterwards.
        """
        until = self.sim.now + span
        if until <= self.quiet_until and self.state in (MacState.QUIET, MacState.WFCONTEND):
            return
        self.quiet_until = max(self.quiet_until, until)
        if self.state is MacState.CONTEND and self.config.defer_resume:
            expires = self._contend_timer.expires_at
            if expires is not None:
                self._contend_remaining = max(expires - self.sim.now, 0.0)
        if self.state in (MacState.IDLE, MacState.CONTEND, MacState.QUIET, MacState.WFCONTEND):
            self._contend_timer.stop()
            if self._contend_remaining is None:
                self._contend_choice = None
            self._enter_quiet()

    def _on_quiet_expired(self) -> None:
        if self.state not in (MacState.QUIET, MacState.WFCONTEND):
            return
        if self._deferring():  # horizon moved while the timer was in flight
            self._quiet_timer.extend_to(self.quiet_until)
            return
        self._maybe_contend()

    # ========================================================== timeouts
    def _on_state_timeout(self) -> None:
        state = self.state
        if state is MacState.WFCTS:
            self.stats.cts_timeouts += 1
            self._fail_attempt()
        elif state is MacState.WFACK:
            self.stats.ack_timeouts += 1
            # §3.3.1: a successful RTS-CTS but missing ACK leaves the
            # backoff untouched; the packet is retransmitted (same ESN).
            entry = self._current
            assert entry is not None
            self._current = None
            entry.retries += 1
            if entry.retries >= self.config.max_retries:
                dst = None if entry.dst == MULTICAST else entry.dst
                self.backoff.on_give_up(dst)
                self.queue.pop(entry)
                self.notify_drop(entry.payload, entry.dst)
            self._set_state(MacState.IDLE)
            self._maybe_contend()
        elif state in (MacState.WFRTS, MacState.WFDS, MacState.WFDATA):
            peer = self._peer
            self._peer = None
            self._set_state(MacState.IDLE)
            if (
                self.config.use_nack
                and peer is not None
                and state in (MacState.WFDS, MacState.WFDATA)
            ):
                # §4 NACK extension: we granted a CTS but the data never
                # arrived cleanly — tell the sender so it retransmits at
                # media timescales instead of trusting silence.
                local, remote = self.backoff.fields_for(peer[0])
                nack = control_frame(
                    FrameType.NACK, self.name, peer[0],
                    local_backoff=local, remote_backoff=remote, esn=peer[2],
                )
                self.send_frame(nack)
                return  # _maybe_contend runs when the NACK finishes
            self._maybe_contend()
        elif state is MacState.SENDDATA:  # pragma: no cover - defensive
            self._set_state(MacState.IDLE)
            self._maybe_contend()

    # ============================================================ helpers
    def _set_state(self, state: MacState) -> None:
        old = self.state
        if state is not old:
            trace, probe = self.sim.trace, self.probe
            if trace.enabled or probe is not None:
                # ``_value_`` is the member's plain attribute; ``.value``
                # goes through the Enum property descriptor.
                frm, to = old._value_, state._value_
                if trace.enabled:
                    trace.record(self.sim.now, "state", self.name, STATE_SHAPE, frm, to)
                if probe is not None:
                    probe.note_state(frm, to, self.sim.now)
            self.state = state
        if state is not MacState.CONTEND:
            self._contend_timer.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MacawMac({self.name!r}, state={self.state.value},"
            f" queue={len(self.queue)}, bo={self.backoff.my_backoff:.1f})"
        )
