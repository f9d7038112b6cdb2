"""Protocol and run configuration.

Two frozen dataclasses live here:

* :class:`ProtocolConfig` — the MAC design axes the paper explores, so
  each table's two columns differ by exactly one flag:

  =====================  =========================================  =========
  Flag                   Paper section                              Table
  =====================  =========================================  =========
  ``copy_backoff``       backoff copying                            Table 1
  ``backoff``            BEB vs MILD                                Table 2
  ``multi_queue``        multiple stream model                      Table 3
  ``use_ack``            link-layer ACK                             Table 4
  ``use_ds``             data-sending packet                        Table 5
  ``use_rrts``           request-for-RTS                            Table 6
  ``per_destination``    per-destination backoff (App. B.2)         Table 8
  =====================  =========================================  =========

* :class:`RunProfile` — every *run-level* knob (tracing, sanitizing,
  metrics, timing, queue capacity, bitrate, grid parameters, fault
  schedule), and the only place to set one.  One profile
  object flows unchanged through ``ScenarioBuilder``, ``Experiment.run``
  and ``service.run_cells``, and :meth:`RunProfile.digest` is what the
  result cache folds into its keys instead of ad-hoc config tuples.

The :func:`active_profile` context manager is the one ambient input:
experiments build their scenarios deep inside driver code, so the
profile cannot always be threaded through as a parameter — builders
constructed without an explicit ``profile=`` pick up the innermost
active one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.obs.runtime import MetricsConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fault.schedule import FaultSchedule
    from repro.mac.timing import MacTiming


@dataclass(frozen=True)
class ProtocolConfig:
    """Feature flags and constants for the configurable exchange MAC."""

    #: Link-layer ACK after DATA (§3.3.1).
    use_ack: bool = False
    #: §4 extension: acknowledgement style when ``use_ack`` is on.
    #: "immediate" — an ACK frame after every DATA (the paper's MACAW);
    #: "piggyback" — while more packets are queued for the stream, skip the
    #: ACK frame and read the acknowledgement off the *next* exchange's CTS
    #: (the last packet of a burst still gets an immediate ACK).
    ack_variant: str = "immediate"
    #: §4 extension: when ``use_ack`` is off, have a receiver whose CTS drew
    #: no DATA send a NACK so the sender retransmits at media timescales
    #: without per-packet ACK overhead.
    use_nack: bool = False
    #: Data-sending announcement between CTS and DATA (§3.3.2).
    use_ds: bool = False
    #: Receiver-initiated contention (§3.3.3).
    use_rrts: bool = False
    #: Backoff adjustment: "beb" or "mild" (§3.1).
    backoff: str = "beb"
    #: Copy overheard backoff values (§3.1).
    copy_backoff: bool = False
    #: Separate congestion estimates per stream end (§3.4, App. B.2).
    per_destination: bool = False
    #: Per-stream queues with earliest-retry-slot selection (§3.2);
    #: False = one FIFO per station.
    multi_queue: bool = False
    #: Appendix-B-literal overheard-RTS defer (full exchange) instead of the
    #: §3.3.2 semantics (until the CTS slot passes).  See DESIGN.md.
    rts_defer_full_exchange: bool = False
    #: §3.3.2's alternative to the DS packet: sense the carrier before
    #: transmitting an RTS and hold until "one slot time after it detects
    #: no carrier" (essentially CSMA/CA).
    carrier_sense: bool = False
    #: When a defer interrupts a pending contention countdown, draw a fresh
    #: delay at the defer's end (False — the literal Appendix-B WFContend
    #: rule, and the default) or resume the interrupted countdown like
    #: 802.11 DCF (True).  Resuming synchronizes backed-off stations to
    #: contention periods so strongly that the paper's capture and
    #: starvation dynamics (Tables 1, 6, 7) cannot form; the redraw rule
    #: reproduces them.
    defer_resume: bool = False
    #: Fraction of a slot of uniform random phase added to every contention
    #: delay.  Stations have no shared slot clock: two draws landing within
    #: one slot of each other partially overlap and collide, which is what
    #: makes low-backoff contention wars expensive (and BEB's reset-to-
    #: minimum costly, §3.1).  Set to 0 for perfectly slot-synchronized
    #: stations (an idealization).
    contention_jitter: float = 1.0

    #: Contention bounds, in slots (§3: BO_min = 2, BO_max = 64).
    bo_min: float = 2.0
    bo_max: float = 64.0
    #: How long (in slots, from the end of the RTS) a sender waits before
    #: declaring the exchange failed.  None uses the physical minimum from
    #: MacTiming (CTS airtime + turnaround + margin ≈ 3 slots).  The
    #: default of 8 reflects the conservative failure detection the paper's
    #: contention throughput implies — with the 3-slot minimum, contention
    #: wars resolve so cheaply that BEB's reset-to-minimum beats MILD,
    #: inverting Table 2.  The failure-detection ablation sweeps this axis;
    #: see EXPERIMENTS.md.
    cts_timeout_slots: Optional[float] = 8.0
    #: Additive penalty, in slots, per retry in the B.2 inference rules.
    alpha: float = 2.0
    #: Attempts per packet before the MAC gives up (App. B "we allow a
    #: certain number of retries ... before discarding the packet").
    max_retries: int = 8

    def __post_init__(self) -> None:
        if self.backoff not in ("beb", "mild"):
            raise ValueError(f"unknown backoff algorithm {self.backoff!r}")
        if self.ack_variant not in ("immediate", "piggyback"):
            raise ValueError(f"unknown ack variant {self.ack_variant!r}")
        if self.use_nack and self.use_ack:
            raise ValueError("NACKs replace ACKs; enable one or the other")
        if not 1 <= self.bo_min <= self.bo_max:
            raise ValueError(
                f"need 1 <= bo_min <= bo_max, got {self.bo_min!r}, {self.bo_max!r}"
            )
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries!r}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha!r}")
        if not 0.0 <= self.contention_jitter <= 1.0:
            raise ValueError(
                f"contention_jitter must be in [0, 1], got {self.contention_jitter!r}"
            )

    def but(self, **changes: object) -> "ProtocolConfig":
        """A copy with the given fields replaced (for ablations)."""
        return replace(self, **changes)


#: Appendix A's MACA: RTS-CTS-DATA, BEB, one queue, one counter, no copying.
MACA_CONFIG = ProtocolConfig()

#: The full MACAW protocol of Appendix B.
MACAW_CONFIG = ProtocolConfig(
    use_ack=True,
    use_ds=True,
    use_rrts=True,
    backoff="mild",
    copy_backoff=True,
    per_destination=True,
    multi_queue=True,
)


def macaw_config(**changes: object) -> ProtocolConfig:
    """The full MACAW configuration, optionally with overrides."""
    return MACAW_CONFIG.but(**changes) if changes else MACAW_CONFIG


def maca_config(**changes: object) -> ProtocolConfig:
    """The Appendix A MACA configuration, optionally with overrides."""
    return MACA_CONFIG.but(**changes) if changes else MACA_CONFIG


# --------------------------------------------------------------------------
# Run profiles: the consolidated run-level configuration surface.
# --------------------------------------------------------------------------

def _normalize_grid_kwargs(value: Any) -> Tuple[Tuple[str, Any], ...]:
    """Canonicalize grid-medium kwargs to a sorted, hashable item tuple."""
    if value is None:
        return ()
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = tuple(value)  # already an item sequence
    out = []
    for item in items:
        key, val = item
        if not isinstance(key, str):
            raise TypeError(f"grid_kwargs keys must be strings, got {key!r}")
        if isinstance(val, list):
            val = tuple(val)
        out.append((key, val))
    return tuple(sorted(out))


def _normalize_metrics(value: Any) -> Optional[MetricsConfig]:
    """Canonicalize a ``metrics`` knob to None (off) or a MetricsConfig.

    ``False`` means off like ``None``; ``True`` and bare numbers are
    sugar for a config.
    """
    if value is None or value is False:
        return None
    if value is True:
        return MetricsConfig()
    if isinstance(value, MetricsConfig):
        return value
    if isinstance(value, (int, float)):
        return MetricsConfig(interval=float(value))
    raise TypeError(
        f"metrics expects None/bool/seconds/MetricsConfig, got {value!r}"
    )


@dataclass(frozen=True)
class RunProfile:
    """Every run-level knob of a scenario, as one immutable value.

    The single configuration object accepted by
    :class:`~repro.topo.builder.ScenarioBuilder` (``profile=``),
    :meth:`Experiment.run` and :func:`repro.service.run_cells`.  Seed,
    medium kind, protocol and :class:`ProtocolConfig` stay separate —
    they are the *identity* of an experiment variant, while the profile
    is how a run is executed and observed (plus which faults are
    injected into it).

    Fields are normalized on construction so equal configurations compare
    (and hash) equal regardless of spelling: ``metrics=2`` becomes a
    :class:`MetricsConfig` and ``metrics=False`` becomes ``None``,
    ``grid_kwargs`` dicts become sorted item tuples, an unset
    ``sanitize`` or ``queue`` becomes the environment's concrete value,
    and an *empty* fault schedule becomes ``None`` — which is what makes
    an empty schedule digest-identical to no schedule at all.
    """

    #: Channel rate (§3: 256 kbps for PARC's radio).
    bitrate_bps: float = 256_000.0
    #: MAC queue bound per stream (None = unbounded).
    queue_capacity: Optional[int] = 64
    #: Explicit :class:`~repro.mac.timing.MacTiming`; None derives one
    #: from ``bitrate_bps``.
    timing: Optional["MacTiming"] = None
    #: Extra :class:`~repro.phy.grid_medium.GridMedium` constructor
    #: kwargs; accepts a mapping, stored as a sorted item tuple.
    grid_kwargs: Any = None
    #: Record a full protocol trace.
    trace: bool = False
    #: Run the conformance sanitizer after every run (forces tracing);
    #: None resolves through ``$REPRO_SANITIZE`` *at construction time*,
    #: so the stored field is always a bool.
    sanitize: Optional[bool] = None
    #: Live instrumentation: None or False (off), True / seconds /
    #: :class:`~repro.obs.runtime.MetricsConfig` (on); stored as None or
    #: a config.
    metrics: Any = None
    #: Fault schedule to inject (:mod:`repro.fault`); empty normalizes to
    #: None so a no-op schedule cannot perturb digests or cache keys.
    faults: Optional["FaultSchedule"] = None
    #: Event-queue backend spec (``"heap"``, ``"wheel"``, ``"wheel:WIDTH"``);
    #: None resolves through ``$REPRO_QUEUE`` (else the heap) *at
    #: construction time*, so the stored field — and the digest — always
    #: name a concrete backend.  Results are backend-independent by
    #: contract, but the digest still distinguishes them so perf
    #: comparisons never read each other's cache entries.
    queue: Optional[str] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bitrate_bps) and self.bitrate_bps > 0):
            raise ValueError(
                f"bitrate must be a finite number > 0, got {self.bitrate_bps!r}"
            )
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(
                f"queue capacity must be >= 1 or None, got {self.queue_capacity!r}"
            )
        object.__setattr__(self, "grid_kwargs", _normalize_grid_kwargs(self.grid_kwargs))
        object.__setattr__(self, "metrics", _normalize_metrics(self.metrics))
        object.__setattr__(self, "trace", bool(self.trace))
        if self.sanitize is None:
            env = os.environ.get("REPRO_SANITIZE", "").strip().lower()
            object.__setattr__(self, "sanitize", env in ("1", "true", "yes", "on"))
        else:
            object.__setattr__(self, "sanitize", bool(self.sanitize))
        from repro.sim.queues import resolve_backend

        object.__setattr__(self, "queue", resolve_backend(self.queue))
        if self.faults is not None:
            from repro.fault.schedule import FaultSchedule

            if not isinstance(self.faults, FaultSchedule):
                raise TypeError(
                    f"faults expects a FaultSchedule or None, got {self.faults!r}"
                )
            if not self.faults:
                object.__setattr__(self, "faults", None)

    # -------------------------------------------------------------- sugar
    def but(self, **changes: Any) -> "RunProfile":
        """A copy with the given fields replaced (normalization re-runs)."""
        return replace(self, **changes)

    def grid_dict(self) -> Dict[str, Any]:
        """The grid-medium kwargs as a plain dict (for ``GridMedium(**...)``)."""
        return dict(self.grid_kwargs)

    @classmethod
    def current(cls) -> "RunProfile":
        """The ambient profile (innermost :func:`active_profile`), else defaults."""
        ambient = ambient_profile()
        return ambient if ambient is not None else cls()

    # ------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        """Every field as JSON-safe data; :meth:`from_dict` inverts it.

        ``timing`` serializes through its dataclass fields, ``metrics``
        through the resolved config, and ``faults`` through the
        schedule's canonical dict.  This is the form a job spec stores
        on disk and a repro JSON carries.
        """
        timing = None if self.timing is None else {
            f.name: getattr(self.timing, f.name)
            for f in fields(self.timing) if f.init
        }
        return {
            "bitrate_bps": self.bitrate_bps,
            "queue_capacity": self.queue_capacity,
            "timing": timing,
            "grid_kwargs": [list(item) for item in self.grid_kwargs],
            "trace": self.trace,
            "sanitize": self.sanitize,
            "metrics": None if self.metrics is None else {
                "interval": self.metrics.interval,
                "capacity": self.metrics.capacity,
            },
            "faults": None if self.faults is None else self.faults.to_dict(),
            "queue": self.queue,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunProfile":
        """The profile :meth:`to_dict` serialized."""
        timing = payload.get("timing")
        if timing is not None:
            from repro.mac.timing import MacTiming

            timing = MacTiming(**timing)
        metrics = payload.get("metrics")
        faults = payload.get("faults")
        if faults is not None:
            from repro.fault.schedule import FaultSchedule

            faults = FaultSchedule.from_dict(faults)
        return cls(
            bitrate_bps=float(payload.get("bitrate_bps", 256_000.0)),
            queue_capacity=payload.get("queue_capacity"),
            timing=timing,
            grid_kwargs=[tuple(item) for item in payload.get("grid_kwargs", [])],
            trace=bool(payload.get("trace", False)),
            sanitize=payload.get("sanitize"),
            metrics=None if metrics is None else MetricsConfig(**metrics),
            faults=faults,
            queue=payload.get("queue"),
        )

    def digest(self) -> str:
        """Stable content hash over every result-affecting knob.

        This is what :func:`repro.service.run_cells` folds into cache
        keys: a hash of :meth:`to_dict`.  An empty fault schedule was
        already normalized to None, so chaos sweeps and plain sweeps
        share their baseline cache entries.
        """
        text = json.dumps(self.to_dict(), sort_keys=True, default=repr)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Profile of the innermost active :func:`active_profile` block, if any.
_ambient_profile: Optional[RunProfile] = None


def ambient_profile() -> Optional[RunProfile]:
    """The innermost :func:`active_profile` block's profile, or None."""
    return _ambient_profile


@contextmanager
def active_profile(profile: RunProfile) -> Iterator[RunProfile]:
    """Make ``profile`` ambient for a block.

    Builders constructed inside the block without an explicit
    ``profile=`` argument adopt it — how one CLI-constructed profile
    reaches every scenario an experiment driver builds, serially or
    inside pool workers.
    """
    global _ambient_profile
    if not isinstance(profile, RunProfile):
        raise TypeError(f"active_profile expects a RunProfile, got {profile!r}")
    previous = _ambient_profile
    _ambient_profile = profile
    try:
        yield profile
    finally:
        _ambient_profile = previous
