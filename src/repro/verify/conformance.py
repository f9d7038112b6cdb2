"""Trace-level protocol conformance sanitizer.

Replays a recorded :class:`repro.sim.trace.Trace` against the declarative
statecharts of :mod:`repro.verify.statecharts` and the control-frame
dialogue rules of the paper, reporting every deviation as a
:class:`Violation`.  The checks:

``non-monotonic-clock``
    Trace timestamps must never decrease (the kernel guarantees this;
    the check catches hand-built or corrupted traces).
``unknown-state``
    A state record names a state outside the station's statechart.
``illegal-transition``
    A state change not in the statechart's transition table, or whose
    source disagrees with the tracked current state (a gap in the trace).
``cts-without-rts``
    A station transmitted a CTS without a cleanly-received, not-yet-
    answered RTS from that peer (control rule 5 grants one CTS per RTS).
``data-without-ds``
    With the DS packet enabled, unicast DATA must be announced by a DS
    to the same peer with the same ESN (§3.3.2); multicast DATA is exempt
    because the multicast exchange has no DS (§3.3.4).
``ack-unsolicited``
    An ACK whose ESN matches no DATA received from that peer.
``ack-duplicate-esn``
    An ACK re-sent for an already-acknowledged ESN without the
    retransmitted RTS that control rule 7 requires as its trigger.
``esn-regression``
    A sender's DATA ESNs for one stream moved backwards.  Skipped for
    the §4 piggyback/NACK variants, whose loss-resurrection legitimately
    reorders the stream (see ``core/macaw.py``).
``overlapping-transmission``
    One station had two of its own frames on the air at once (physically
    impossible for a half-duplex radio).

Stations running MACs without the RTS-CTS dialogue (CSMA, polling) are
checked only for the protocol-independent invariants (clock monotonicity
and transmission overlap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.macaw import MacawMac
from repro.mac.frames import MULTICAST
from repro.sim.trace import Trace
from repro.verify.statecharts import Statechart, statechart_for

__all__ = [
    "Violation",
    "ConformanceReport",
    "ConformanceError",
    "StationProfile",
    "profile_for_mac",
    "check_trace",
    "check_scenario",
]

#: Slack for float comparisons of transmission boundaries (seconds).
_EPS = 1e-12

#: Detail keys the checks read, per record category (see ``Trace.fields``).
_FIELDS = {
    "state": ("frm", "to"),
    "send": ("kind", "dst", "esn", "size"),
    "recv": ("clean", "kind", "src", "dst", "esn"),
}


@dataclass(frozen=True)
class Violation:
    """One conformance finding."""

    code: str
    time: float
    station: str
    message: str

    def render(self) -> str:
        return f"t={self.time:.6f} {self.station}: [{self.code}] {self.message}"


@dataclass(frozen=True)
class StationProfile:
    """What the checker needs to know about one station."""

    name: str
    #: Transition table, or None for MACs outside the RTS-CTS family.
    statechart: Optional[Statechart] = None
    use_ds: bool = False
    use_ack: bool = False
    #: False when §4 resurrection (piggyback/NACK) may reorder ESNs.
    ordered_esn: bool = True


@dataclass
class ConformanceReport:
    """All violations found in one trace replay."""

    violations: List[Violation] = field(default_factory=list)
    #: Records examined, by category (sanity signal: 0 means no trace).
    examined: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_code(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for violation in self.violations:
            out[violation.code] = out.get(violation.code, 0) + 1  # repro-lint: allow=REPRO107 (report summary)
        return out

    def render(self, limit: int = 20) -> str:
        if self.ok:
            total = sum(self.examined.values())
            return f"conformance OK ({total} trace records examined)"
        lines = [f"{len(self.violations)} conformance violation(s):"]
        for violation in self.violations[:limit]:
            lines.append("  " + violation.render())
        if len(self.violations) > limit:
            lines.append(f"  ... and {len(self.violations) - limit} more")
        return "\n".join(lines)


class ConformanceError(AssertionError):
    """Raised by sanitized runs when the trace violates the protocol."""

    def __init__(self, report: ConformanceReport) -> None:
        super().__init__(report.render())
        self.report = report


def profile_for_mac(mac: Any) -> StationProfile:
    """Build the checker profile for one attached MAC entity.

    :class:`~repro.core.macaw.MacawMac` (and its MACA subclass) get the
    full dialogue profile derived from their config; anything else is
    checked only for protocol-independent invariants.
    """
    if isinstance(mac, MacawMac):
        config = mac.config
        return StationProfile(
            name=mac.name,
            statechart=statechart_for(config),
            use_ds=config.use_ds,
            use_ack=config.use_ack,
            ordered_esn=not (config.ack_variant == "piggyback" or config.use_nack),
        )
    return StationProfile(name=mac.name)


class _DialogueState:
    """Mutable per-station bookkeeping while replaying a trace."""

    __slots__ = (
        "state",
        "pending_rts",
        "pending_ds",
        "pending_data_esn",
        "reack_esn",
        "received_esns",
        "acked_esns",
        "tx_end",
        "max_data_esn",
    )

    def __init__(self, initial: str) -> None:
        self.state = initial
        #: Clean, unanswered RTS per peer: peer -> esn (None allowed).
        self.pending_rts: Dict[str, Optional[int]] = {}
        #: DS announced but DATA not yet sent, per peer: peer -> esn.
        self.pending_ds: Dict[str, Optional[int]] = {}
        #: Most recent clean DATA not yet acknowledged, per peer.
        self.pending_data_esn: Dict[str, Optional[int]] = {}
        #: Rule-7 re-ACK armed by a retransmitted RTS, per peer.
        self.reack_esn: Dict[str, Optional[int]] = {}
        #: Every ESN of clean DATA received, per peer.
        self.received_esns: Dict[str, Set[int]] = {}
        #: Every ESN this station has acknowledged, per peer.
        self.acked_esns: Dict[str, Set[int]] = {}
        #: End time of this station's own in-flight transmission.
        self.tx_end: float = float("-inf")
        #: Highest DATA ESN sent per destination (esn-regression check).
        self.max_data_esn: Dict[str, int] = {}


def check_trace(
    trace: Trace,
    profiles: Mapping[str, StationProfile],
    bitrate_bps: float = 256_000.0,
) -> ConformanceReport:
    """Replay ``trace`` against the per-station ``profiles``.

    Stations appearing in the trace without a profile are treated like
    non-dialogue MACs (invariant checks only).  ``bitrate_bps`` converts
    frame sizes to airtime for the overlap check.
    """
    report = ConformanceReport()
    states: Dict[str, _DialogueState] = {}
    last_time = float("-inf")

    def dialogue(name: str) -> _DialogueState:
        entry = states.get(name)
        if entry is None:
            profile = profiles.get(name)
            initial = (
                profile.statechart.initial
                if profile is not None and profile.statechart is not None
                else "IDLE"
            )
            entry = _DialogueState(initial)
            states[name] = entry
        return entry

    for row in trace.fields(_FIELDS):
        time, category, station = row[0], row[1], row[2]
        report.examined[category] = report.examined.get(category, 0) + 1  # repro-lint: allow=REPRO107 (sanitizer tally)
        if time < last_time - _EPS:
            report.violations.append(Violation(
                "non-monotonic-clock", time, station,
                f"clock moved backwards ({last_time:.9f} -> {time:.9f})",
            ))
        last_time = max(last_time, time)

        profile = profiles.get(station)
        if category == "state":
            _check_state(row, profile, dialogue(station), report)
        elif category == "send":
            _check_send(row, profile, dialogue(station), report, bitrate_bps)
        elif category == "recv":
            _note_recv(row, dialogue(station))
        elif category == "power":
            # A power cycle (Figure 9, fault-injection churn) reboots the
            # radio into its statechart's initial state and forgets any
            # half-open dialogue; replay must do the same or the next
            # transition reads as a trace gap.
            initial = (
                profile.statechart.initial
                if profile is not None and profile.statechart is not None
                else "IDLE"
            )
            entry = dialogue(station)
            entry.state = initial
            entry.pending_rts.clear()
            entry.pending_ds.clear()
            entry.pending_data_esn.clear()
            entry.reack_esn.clear()
            entry.tx_end = float("-inf")
    return report


def _text(value: Any) -> str:
    """A name field as the checks compare it: "" when the record lacks it."""
    return "" if value is None else str(value)


def _check_state(
    row: Tuple[Any, ...],
    profile: Optional[StationProfile],
    entry: _DialogueState,
    report: ConformanceReport,
) -> None:
    time, _, station, frm, to = row
    frm, to = _text(frm), _text(to)
    if profile is None or profile.statechart is None:
        entry.state = to
        return
    chart = profile.statechart
    for state in (frm, to):
        if state not in chart:
            report.violations.append(Violation(
                "unknown-state", time, station,
                f"state {state!r} is not in the {chart.name} statechart",
            ))
    if frm != entry.state:
        report.violations.append(Violation(
            "illegal-transition", time, station,
            f"trace gap: transition claims {frm!r} but station was in"
            f" {entry.state!r}",
        ))
    elif not chart.allows(frm, to):
        report.violations.append(Violation(
            "illegal-transition", time, station,
            f"{frm} -> {to} is not a legal {chart.name} transition",
        ))
    entry.state = to


def _check_send(
    row: Tuple[Any, ...],
    profile: Optional[StationProfile],
    entry: _DialogueState,
    report: ConformanceReport,
    bitrate_bps: float,
) -> None:
    time, _, station, kind, dst, esn, size = row
    dst = _text(dst)

    # Half-duplex: one station, one frame on the air at a time.
    if time < entry.tx_end - _EPS:
        report.violations.append(Violation(
            "overlapping-transmission", time, station,
            f"{kind} to {dst} starts before the previous transmission ends"
            f" at t={entry.tx_end:.9f}",
        ))
    if isinstance(size, (int, float)) and size > 0:
        entry.tx_end = time + (float(size) * 8.0) / bitrate_bps

    if profile is None or profile.statechart is None or kind is None:
        return

    if kind == "CTS":
        if dst not in entry.pending_rts:
            report.violations.append(Violation(
                "cts-without-rts", time, station,
                f"CTS to {dst} without an unanswered RTS from {dst}",
            ))
        else:
            del entry.pending_rts[dst]
    elif kind == "DS":
        entry.pending_ds[dst] = esn
    elif kind == "DATA":
        if profile.use_ds and dst != MULTICAST:
            announced = entry.pending_ds.pop(dst, "missing")
            if announced == "missing":
                report.violations.append(Violation(
                    "data-without-ds", time, station,
                    f"DATA to {dst} without a preceding DS",
                ))
            elif announced is not None and esn is not None and announced != esn:
                report.violations.append(Violation(
                    "data-without-ds", time, station,
                    f"DATA esn={esn} to {dst} but the DS announced"
                    f" esn={announced}",
                ))
        if esn is not None and dst != MULTICAST:
            previous = entry.max_data_esn.get(dst)
            if (
                profile.ordered_esn
                and previous is not None
                and int(esn) < previous
            ):
                report.violations.append(Violation(
                    "esn-regression", time, station,
                    f"DATA esn={esn} to {dst} after esn={previous}",
                ))
            entry.max_data_esn[dst] = max(previous or 0, int(esn))
    elif kind == "ACK":
        _check_ack(time, station, entry, dst, esn, report)


def _check_ack(
    time: float,
    station: str,
    entry: _DialogueState,
    dst: str,
    esn: Any,
    report: ConformanceReport,
) -> None:
    if esn is None:
        # ACKs without an ESN carry no sequence contract to check.
        return
    esn = int(esn)
    acked = entry.acked_esns.setdefault(dst, set())
    if entry.pending_data_esn.get(dst) == esn:
        entry.pending_data_esn[dst] = None
        acked.add(esn)
        return
    if entry.reack_esn.get(dst) == esn:
        entry.reack_esn[dst] = None
        acked.add(esn)
        return
    if esn in entry.received_esns.get(dst, set()):
        report.violations.append(Violation(
            "ack-duplicate-esn", time, station,
            f"re-ACK of esn={esn} to {dst} without a retransmitted RTS",
        ))
    else:
        report.violations.append(Violation(
            "ack-unsolicited", time, station,
            f"ACK esn={esn} to {dst} matches no DATA received from {dst}",
        ))


def _note_recv(row: Tuple[Any, ...], entry: _DialogueState) -> None:
    _, _, station, clean, kind, src, dst, esn = row
    if not clean:
        return
    if _text(dst) != station:
        return  # overheard or multicast: not part of this station's dialogue
    src = _text(src)
    if kind == "RTS":
        entry.pending_rts[src] = esn
        if esn is not None and int(esn) in entry.received_esns.get(src, set()):
            # Control rule 7: a re-requested exchange may be re-ACKed.
            entry.reack_esn[src] = int(esn)
    elif kind == "DATA":
        if esn is not None:
            entry.pending_data_esn[src] = int(esn)
            entry.received_esns.setdefault(src, set()).add(int(esn))


def check_scenario(scenario: Any) -> ConformanceReport:
    """Check a built :class:`~repro.topo.builder.Scenario`'s trace.

    Profiles are derived from the scenario's stations and the medium's
    bitrate; the scenario must have been built with tracing enabled.
    """
    profiles = {
        name: profile_for_mac(station.mac)
        for name, station in scenario.stations.items()
    }
    trace: Trace = scenario.sim.trace
    return check_trace(trace, profiles, bitrate_bps=scenario.medium.bitrate_bps)
