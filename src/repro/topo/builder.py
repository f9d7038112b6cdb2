"""Declarative scenario construction.

A :class:`ScenarioBuilder` collects the description of an experiment —
medium type, stations, connectivity, traffic streams, noise, scheduled
events — and :meth:`~ScenarioBuilder.build` materializes it into a
:class:`Scenario` ready to :meth:`~Scenario.run`.

Example (the paper's Figure 2)::

    builder = ScenarioBuilder(seed=1, protocol="maca")
    builder.add_base("B")
    builder.add_pad("P1")
    builder.add_pad("P2")
    builder.clique("B", "P1", "P2")
    builder.udp("P1", "B", rate_pps=64)
    builder.udp("P2", "B", rate_pps=64)
    scenario = builder.build().run(500)
    scenario.throughput("P1-B", warmup=50)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Tuple,
)

from repro.core.config import (
    MACA_CONFIG,
    MACAW_CONFIG,
    RunProfile,
    ambient_profile,
)
from repro.core.macaw import MacawMac
from repro.mac.base import BaseMac
from repro.mac.timing import MacTiming
from repro.net.sink import FlowRecorder
from repro.net.udp import UdpStream
from repro.phy.graph_medium import GraphMedium
from repro.phy.medium import Medium
from repro.phy.noise import PacketErrorModel
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace, TraceRecord
from repro.topo.station import Station

# Protocols, media, transports and optional machinery that only some
# builds use are imported on the branch that uses them, so a run loads
# what it simulates; import_build_modules() loads them up front.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fault.inject import FaultInjector
    from repro.obs.probes import ScenarioMetrics
    from repro.verify.conformance import ConformanceReport

#: Default warm-up excluded from throughput measurements (§3: "a warmup
#: period of 50 seconds").
DEFAULT_WARMUP_S = 50.0


@dataclass
class ScenarioRun:
    """What one :meth:`Scenario.run` hands to the open capture blocks.

    ``digest``, ``records`` and ``metrics`` are filled only when some
    open :func:`capturing` block asked for them (``metrics`` also needs
    an instrumented scenario); ``examined`` and ``violations`` whenever
    the sanitizer ran.
    """

    digest: Optional[str] = None
    #: Full trace record list — the differential bisector's event view.
    records: Optional[List[TraceRecord]] = None
    #: End-of-run metrics dump (``ScenarioMetrics.dump``).
    metrics: Optional[dict] = None
    #: Trace records the sanitizer examined, and the violations it found.
    examined: Optional[int] = None
    violations: Optional[int] = None


@dataclass(eq=False)
class _Capture:
    digests: bool
    traces: bool
    metrics: bool
    runs: List[ScenarioRun]


#: Every open :func:`capturing` block, outermost first.
_captures: List[_Capture] = []


@contextmanager
def capturing(digests: bool = False, traces: bool = False,
              metrics: bool = False) -> Iterator[List[ScenarioRun]]:
    """Collect one :class:`ScenarioRun` per :meth:`Scenario.run` in a block.

    Experiments build and run their scenarios deep inside driver code,
    so this is how a caller gets per-scenario outputs out of a run.
    Blocks nest and every open block sees every run, in run order.  A
    block asking for ``digests`` or ``traces`` forces tracing on for
    scenarios built inside it.  Only ``traces`` keeps the records: under
    ``digests`` alone the trace hashes its rows as they come and drops
    them.  Use ``traces`` only for diagnosis — a long run's records dwarf
    its digest.
    """
    capture = _Capture(digests, traces, metrics, [])
    _captures.append(capture)
    try:
        yield capture.runs
    finally:
        _captures.remove(capture)


def _capture_run(scenario: "Scenario",
                 report: Optional["ConformanceReport"]) -> None:
    """Hand one finished run to every open :func:`capturing` block."""
    run = ScenarioRun()
    if any(c.digests for c in _captures):
        run.digest = scenario.sim.trace.digest()
    if any(c.traces for c in _captures):
        run.records = list(scenario.sim.trace)
    if scenario.metrics is not None and any(c.metrics for c in _captures):
        run.metrics = scenario.metrics.dump()
    if report is not None:
        run.examined = sum(report.examined.values())
        run.violations = len(report.violations)
    for capture in _captures:
        capture.runs.append(run)


class Scenario:
    """A materialized experiment: simulator, medium, stations and streams."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        recorder: FlowRecorder,
        sanitize: bool = False,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.recorder = recorder
        self.stations: Dict[str, Station] = {}
        self.streams: Dict[str, Any] = {}
        self.duration: Optional[float] = None
        #: When True, every :meth:`run` replays the trace through the
        #: conformance sanitizer and raises on protocol violations.
        self.sanitize = sanitize
        #: Report from the most recent :meth:`verify` / sanitized run.
        self.conformance: Optional["ConformanceReport"] = None
        #: Live metrics handle (:class:`repro.obs.probes.ScenarioMetrics`);
        #: None unless the builder instrumented this scenario.
        self.metrics: Optional["ScenarioMetrics"] = None
        #: Installed fault injector (:mod:`repro.fault`); None unless the
        #: builder's profile carried a non-empty schedule.
        self.fault_injector: Optional["FaultInjector"] = None

    def station(self, name: str) -> Station:
        return self.stations[name]

    def stream(self, stream_id: str) -> Any:
        return self.streams[stream_id]

    def run(self, duration: float) -> "Scenario":
        """Advance the simulation to ``duration`` seconds and remember it.

        In sanitized mode the recorded trace is then replayed through the
        protocol conformance checker; any violation raises
        :class:`~repro.verify.conformance.ConformanceError` (after the
        open :func:`capturing` blocks have seen the run).
        """
        self.sim.run(until=duration)
        self.duration = duration
        report = self.verify() if self.sanitize else None
        if _captures:
            _capture_run(self, report)
        if report is not None and not report.ok:
            from repro.verify.conformance import ConformanceError

            raise ConformanceError(report)
        return self

    def verify(self) -> "ConformanceReport":
        """Replay the recorded trace through the conformance sanitizer.

        Requires a trace that keeps its rows (``trace=True`` or
        ``sanitize=True`` on the builder's profile, or a build inside
        ``capturing(traces=True)``); with tracing off the report is
        trivially empty, and a trace kept only for its digest raises the
        ``RuntimeError`` its readers raise.
        """
        from repro.verify.conformance import check_scenario

        self.conformance = check_scenario(self)
        return self.conformance

    # ------------------------------------------------------------- results
    def throughput(
        self,
        stream_id: str,
        warmup: float = DEFAULT_WARMUP_S,
        end: Optional[float] = None,
    ) -> float:
        """Delivered packets per second for one stream, past warm-up."""
        if end is None:
            if self.duration is None:
                raise RuntimeError("run() the scenario before reading throughput")
            end = self.duration
        return self.recorder.throughput_pps(stream_id, warmup, end)

    def throughputs(
        self, warmup: float = DEFAULT_WARMUP_S, end: Optional[float] = None
    ) -> Dict[str, float]:
        """Throughput of every declared stream, in declaration order."""
        return {
            stream_id: self.throughput(stream_id, warmup, end)
            for stream_id in self.streams
        }


@dataclass
class _StationSpec:
    name: str
    kind: str
    position: Tuple[float, float, float]
    protocol: Optional[str]
    config: Optional[Any]


class ScenarioBuilder:
    """Collects an experiment description; ``build()`` wires it together.

    Parameters
    ----------
    seed:
        Master random seed (one integer reproduces the whole run).
    medium:
        ``"graph"`` (explicit connectivity, the figures' textual topology)
        or ``"grid"`` (the paper's cube-grid signal model).
    protocol:
        Default MAC for stations: ``"macaw"``, ``"maca"`` or ``"csma"``.
    config:
        Default protocol configuration (a :class:`ProtocolConfig` for
        macaw/maca, a :class:`CsmaConfig` for csma).
    profile:
        Every run-level knob — bitrate, queue bound, timing, tracing,
        sanitizer, metrics, grid kwargs and the fault schedule — as one
        :class:`~repro.core.config.RunProfile`.  Omitted, the builder
        adopts the ambient profile
        (:func:`~repro.core.config.active_profile`) or plain defaults.
        To change one knob on an existing builder, replace the profile:
        ``builder.profile = builder.profile.but(trace=True)``.
    """

    def __init__(
        self,
        seed: int = 0,
        medium: str = "graph",
        protocol: str = "macaw",
        config: Optional[Any] = None,
        profile: Optional[RunProfile] = None,
    ) -> None:
        if medium not in ("graph", "grid"):
            raise ValueError(f"medium must be 'graph' or 'grid', got {medium!r}")
        if profile is not None and not isinstance(profile, RunProfile):
            raise TypeError(f"profile expects a RunProfile, got {profile!r}")
        self.seed = seed
        self.medium_kind = medium
        self.protocol = protocol
        self.config = config
        base = profile if profile is not None else ambient_profile()
        self.profile = base if base is not None else RunProfile()
        self._stations: List[_StationSpec] = []
        self._links: List[Tuple[str, str, bool]] = []
        self._streams: List[Tuple[str, Dict[str, Any]]] = []
        self._noise: List[PacketErrorModel] = []
        self._events: List[Tuple[float, Callable[[Scenario], None]]] = []

    # ------------------------------------------------------------- stations
    def add_station(
        self,
        name: str,
        kind: str,
        position: Tuple[float, float, float] = (0.0, 0.0, 0.0),
        protocol: Optional[str] = None,
        config: Optional[Any] = None,
    ) -> "ScenarioBuilder":
        if any(spec.name == name for spec in self._stations):
            raise ValueError(f"duplicate station {name!r}")
        self._stations.append(_StationSpec(name, kind, position, protocol, config))
        return self

    def add_pad(self, name: str, position: Tuple[float, float, float] = (0.0, 0.0, 0.0),
                **kwargs: Any) -> "ScenarioBuilder":
        return self.add_station(name, "pad", position, **kwargs)

    def add_base(self, name: str, position: Tuple[float, float, float] = (0.0, 0.0, 0.0),
                 **kwargs: Any) -> "ScenarioBuilder":
        return self.add_station(name, "base", position, **kwargs)

    # ---------------------------------------------------------------- links
    def _require_station(self, name: str) -> None:
        if not any(spec.name == name for spec in self._stations):
            raise ValueError(
                f"unknown station {name!r} in link(); declare it with "
                f"add_pad()/add_base() first"
            )

    def link(self, a: str, b: str, symmetric: bool = True) -> "ScenarioBuilder":
        """Declare that ``a`` and ``b`` are in range (graph medium only).

        Both stations must already be declared — a typo fails here, at the
        declaration site, rather than as a ``KeyError`` deep in
        :meth:`build`.
        """
        self._require_station(a)
        self._require_station(b)
        self._links.append((a, b, symmetric))
        return self

    def clique(self, *names: str) -> "ScenarioBuilder":
        """Declare a set of mutually in-range stations (one cell)."""
        members = list(names)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                self.link(a, b)
        return self

    # -------------------------------------------------------------- traffic
    def udp(
        self,
        src: str,
        dst: str,
        rate_pps: float,
        stream_id: Optional[str] = None,
        **kwargs: Any,
    ) -> str:
        """Declare a UDP stream; returns its id (default ``"src-dst"``)."""
        stream_id = stream_id or f"{src}-{dst}"
        self._streams.append(("udp", dict(src=src, dst=dst, rate_pps=rate_pps,
                                          stream_id=stream_id, **kwargs)))
        return stream_id

    def tcp(
        self,
        src: str,
        dst: str,
        rate_pps: float,
        stream_id: Optional[str] = None,
        **kwargs: Any,
    ) -> str:
        """Declare a TCP stream; returns its id (default ``"src-dst"``)."""
        stream_id = stream_id or f"{src}-{dst}"
        self._streams.append(("tcp", dict(src=src, dst=dst, rate_pps=rate_pps,
                                          stream_id=stream_id, **kwargs)))
        return stream_id

    # ------------------------------------------------------- noise & events
    def noise(self, model: PacketErrorModel) -> "ScenarioBuilder":
        """Attach a packet-error model to the medium."""
        self._noise.append(model)
        return self

    def at(self, time: float, action: Callable[[Scenario], None]) -> "ScenarioBuilder":
        """Schedule ``action(scenario)`` at simulated ``time`` (mobility,
        power changes, reconfiguration)."""
        self._events.append((time, action))
        return self

    def power_off_at(self, name: str, time: float) -> "ScenarioBuilder":
        """Schedule a station power-off (Figure 9)."""
        return self.at(time, lambda scenario: scenario.station(name).power_off())

    # ----------------------------------------------------------------- build
    def _make_mac(
        self, sim: Simulator, medium: Medium, spec: _StationSpec, timing: MacTiming
    ) -> BaseMac:
        protocol = spec.protocol or self.protocol
        config = spec.config if spec.config is not None else self.config
        if protocol == "macaw":
            return MacawMac(
                sim, medium, spec.name, position=spec.position,
                config=config if config is not None else MACAW_CONFIG,
                timing=timing, queue_capacity=self.profile.queue_capacity,
            )
        if protocol == "maca":
            from repro.mac.maca import MacaMac

            return MacaMac(
                sim, medium, spec.name, position=spec.position,
                config=config if config is not None else MACA_CONFIG,
                timing=timing, queue_capacity=self.profile.queue_capacity,
            )
        if protocol == "csma":
            from repro.mac.csma import CsmaConfig, CsmaMac

            return CsmaMac(
                sim, medium, spec.name, position=spec.position,
                config=config if config is not None else CsmaConfig(),
                timing=timing, queue_capacity=self.profile.queue_capacity,
            )
        if protocol == "polling":
            from repro.mac.polling import (
                PollingBaseMac,
                PollingConfig,
                PollingPadMac,
            )

            cls = PollingBaseMac if spec.kind == "base" else PollingPadMac
            return cls(
                sim, medium, spec.name, position=spec.position,
                config=config if config is not None else PollingConfig(),
                timing=timing, queue_capacity=self.profile.queue_capacity,
            )
        raise ValueError(f"unknown protocol {protocol!r}")

    def build(self) -> Scenario:
        """Materialize the scenario (idempotent: each call builds afresh)."""
        profile = self.profile
        sanitize = bool(profile.sanitize)  # already resolved by the profile
        if sanitize:
            # The checker runs after the simulation, but like every module
            # a run uses it is imported before the first event.
            import_module("repro.verify.conformance")
        # Rows are kept whenever something can read them: a trace the
        # profile asked for, the sanitizer's replay or a capture of
        # records.  A build traced only for its digest hashes its rows as
        # they come and drops them.
        readable = profile.trace or sanitize or any(c.traces for c in _captures)
        digested = any(c.digests for c in _captures)
        digest_only = digested and not readable
        trace = Trace(enabled=readable or digested, keep_rows=not digest_only)
        sim = Simulator(seed=self.seed, trace=trace, queue=profile.queue)
        if self.medium_kind == "graph":
            medium: Medium = GraphMedium(sim, bitrate_bps=profile.bitrate_bps)
        else:
            from repro.phy.grid_medium import GridMedium

            medium = GridMedium(
                sim, bitrate_bps=profile.bitrate_bps, **profile.grid_dict()
            )
        recorder = FlowRecorder()
        scenario = Scenario(sim, medium, recorder, sanitize=sanitize)
        timing = profile.timing if profile.timing is not None else MacTiming(
            bitrate_bps=profile.bitrate_bps
        )

        for spec in self._stations:
            mac = self._make_mac(sim, medium, spec, timing)
            scenario.stations[spec.name] = Station(spec.name, spec.kind, mac, recorder)

        if self._links and self.medium_kind != "graph":
            raise ValueError("explicit links require the graph medium")
        if isinstance(medium, GraphMedium):
            for a, b, symmetric in self._links:
                medium.set_link(
                    scenario.stations[a].mac, scenario.stations[b].mac, True, symmetric
                )

        for model in self._noise:
            medium.add_noise_model(model)

        # Polling cells: each polling base learns the pads in its range.
        if any((spec.protocol or self.protocol) == "polling"
               for spec in self._stations):
            from repro.mac.polling import PollingBaseMac, PollingPadMac

            for station in scenario.stations.values():
                mac = station.mac
                if not isinstance(mac, PollingBaseMac):
                    continue
                for other in scenario.stations.values():
                    if isinstance(other.mac, PollingPadMac) and medium.in_range(
                        mac, other.mac
                    ):
                        mac.register_pad(other.name)

        for kind, params in self._streams:
            src = scenario.stations[params["src"]]
            dst = scenario.stations[params["dst"]]
            stream_id = params["stream_id"]
            extra = {
                k: v for k, v in params.items()
                if k not in ("src", "dst", "stream_id", "rate_pps")
            }
            if kind == "udp":
                stream: Any = UdpStream(
                    sim, src.mac, dst.mac, stream_id, params["rate_pps"], **extra
                )
            else:
                from repro.net.tcp import TcpStream

                stream = TcpStream(
                    sim, src.dispatcher, dst.dispatcher, stream_id,
                    params["rate_pps"], recorder=recorder, **extra
                )
            scenario.streams[stream_id] = stream

        for time, action in self._events:
            sim.at(time, action, scenario)

        # Faults compile onto the kernel after user events (same build
        # order every run) and before instrumentation, so the probes can
        # bind to the injector's counters.
        if profile.faults is not None:
            from repro.fault.inject import install_faults

            scenario.fault_injector = install_faults(
                scenario, profile.faults, declared_links=tuple(self._links)
            )

        # Instrument last, once every station and stream exists.  The
        # sampler attaches as the kernel's passive observer and the probes
        # only read model state, so an instrumented run fires the same
        # events and produces the same trace digest as a bare one.
        if profile.metrics is not None:
            from repro.obs.probes import instrument_scenario

            scenario.metrics = instrument_scenario(scenario, profile.metrics)
        return scenario


def import_build_modules(profile: RunProfile) -> None:
    """Import every module :meth:`ScenarioBuilder.build` may import lazily.

    That is every protocol, medium and transport a build can pick, plus
    the sanitizer, probes and fault injector (with the ``numpy.random``
    its exponential draws load) when ``profile`` turns them on.  A
    process about to fork workers calls this once, so no worker imports
    per cell what its parent could import once.
    """
    names = ["repro.mac.csma", "repro.mac.maca", "repro.mac.polling",
             "repro.net.tcp", "repro.phy.grid_medium"]
    if profile.sanitize:
        names.append("repro.verify.conformance")
    if profile.metrics is not None:
        names.append("repro.obs.probes")
    if profile.faults is not None:
        names += ["repro.fault.inject", "numpy.random"]
    for name in names:
        import_module(name)
