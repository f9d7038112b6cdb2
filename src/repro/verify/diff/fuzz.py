"""Seeded scenario fuzzer feeding the differential oracle.

Scenarios are drawn from a small grammar — a base station plus 2–5 pads,
a star topology with random extra pad-pad links (hidden/exposed-terminal
geometry falls out), per-pad uplink/downlink UDP flows, and 0–3 fault
events — using dedicated ``fuzz:*`` RNG substreams so case ``i`` of seed
``s`` is the same scenario on every machine, forever.  The ``fuzz:*``
namespace is reserved for this package (analyzer rule REPRO116): fuzzing
randomness must never leak into the protocol stack's stream space.

A failing case is greedily shrunk (:mod:`repro.verify.diff.shrink`),
bisected to its first divergent record, and written out as a minimal
repro JSON that :func:`replay_repro` — or a regression test — can re-run
standalone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import RunProfile
from repro.fault import (
    BurstNoise,
    FaultSchedule,
    LinkFlap,
    QueueSqueeze,
    StationChurn,
)
from repro.fault.events import FaultEvent
from repro.sim.rng import RandomStreams
from repro.topo.builder import ScenarioBuilder
from repro.verify.diff.bisect import DivergencePoint, locate_first_divergence
from repro.verify.diff.modes import ExecMode
from repro.verify.diff.oracle import CellDivergence, ScenarioOracle
from repro.verify.diff.shrink import shrink_case

__all__ = [
    "FuzzFailure",
    "FuzzScenario",
    "REPRO_SCHEMA",
    "generate_case",
    "load_repro",
    "replay_repro",
    "run_fuzz",
    "write_repro",
]

#: Version tag on every emitted repro JSON document.
REPRO_SCHEMA = 1

#: Default simulated duration of a fuzz case (seconds): long enough for
#: backoff/copy dynamics, short enough for a budgeted CI smoke.
DEFAULT_CASE_DURATION_S = 12.0

_RATES_PPS = (16.0, 32.0, 48.0)


@dataclass(frozen=True)
class FuzzScenario:
    """One generated scenario: the fuzzer's (and shrinker's) unit."""

    seed: int
    duration: float = DEFAULT_CASE_DURATION_S
    protocol: str = "macaw"
    pads: Tuple[str, ...] = ()
    #: Pad-pad links beyond the base star (hidden-terminal geometry).
    extra_links: Tuple[Tuple[str, str], ...] = ()
    #: (src, dst, rate_pps) UDP flows.
    flows: Tuple[Tuple[str, str, float], ...] = ()
    faults: Tuple[FaultEvent, ...] = ()

    def build_builder(self, profile: RunProfile) -> ScenarioBuilder:
        """Materialize this case as a ready-to-build ScenarioBuilder."""
        schedule = FaultSchedule(self.faults) if self.faults else None
        builder = ScenarioBuilder(
            seed=self.seed, protocol=self.protocol,
            profile=profile.but(faults=schedule),
        )
        builder.add_base("B")
        for pad in self.pads:
            builder.add_pad(pad)
            builder.link("B", pad)
        for a, b in self.extra_links:
            builder.link(a, b)
        for src, dst, rate in self.flows:
            builder.udp(src, dst, rate)
        return builder

    def describe(self) -> str:
        return (
            f"seed={self.seed} pads={len(self.pads)} "
            f"links=+{len(self.extra_links)} flows={len(self.flows)} "
            f"faults={len(self.faults)} duration={self.duration}"
        )

    # -------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "duration": self.duration,
            "protocol": self.protocol,
            "pads": list(self.pads),
            "extra_links": [list(link) for link in self.extra_links],
            "flows": [list(flow) for flow in self.flows],
            "faults": FaultSchedule(self.faults).to_dict() if self.faults else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FuzzScenario":
        faults_payload = payload.get("faults")
        faults: Tuple[FaultEvent, ...] = ()
        if faults_payload:
            faults = tuple(FaultSchedule.from_dict(faults_payload))
        return cls(
            seed=int(payload["seed"]),
            duration=float(payload.get("duration", DEFAULT_CASE_DURATION_S)),
            protocol=str(payload.get("protocol", "macaw")),
            pads=tuple(str(p) for p in payload.get("pads", ())),
            extra_links=tuple(
                (str(a), str(b)) for a, b in payload.get("extra_links", ())
            ),
            flows=tuple(
                (str(src), str(dst), float(rate))
                for src, dst, rate in payload.get("flows", ())
            ),
            faults=faults,
        )

    # ------------------------------------------------------------ shrinking
    def removal_candidates(self) -> List[Tuple[str, int]]:
        """Everything the shrinker may try to drop, one element at a time.

        Ordered most-structural first: dropping a pad (and everything
        attached to it) shrinks fastest.
        """
        candidates: List[Tuple[str, int]] = []
        candidates.extend(("pad", i) for i in range(len(self.pads)))
        candidates.extend(("fault", i) for i in range(len(self.faults)))
        candidates.extend(("flow", i) for i in range(len(self.flows)))
        candidates.extend(("link", i) for i in range(len(self.extra_links)))
        return candidates

    def remove(self, candidate: Tuple[str, int]) -> Optional["FuzzScenario"]:
        """The case minus one element, or None when removal is invalid."""
        kind, index = candidate
        if kind == "pad":
            if len(self.pads) <= 1:
                return None
            pad = self.pads[index]
            flows = tuple(f for f in self.flows if pad not in (f[0], f[1]))
            if not flows:
                return None
            return replace(
                self,
                pads=self.pads[:index] + self.pads[index + 1:],
                extra_links=tuple(l for l in self.extra_links if pad not in l),
                flows=flows,
                faults=tuple(
                    f for f in self.faults if pad not in f.station_names()
                ),
            )
        if kind == "fault":
            return replace(
                self, faults=self.faults[:index] + self.faults[index + 1:]
            )
        if kind == "flow":
            if len(self.flows) <= 1:
                return None
            return replace(
                self, flows=self.flows[:index] + self.flows[index + 1:]
            )
        if kind == "link":
            return replace(
                self,
                extra_links=self.extra_links[:index] + self.extra_links[index + 1:],
            )
        raise ValueError(f"unknown removal candidate {candidate!r}")


def generate_case(master_seed: int, index: int,
                  duration: float = DEFAULT_CASE_DURATION_S) -> FuzzScenario:
    """Draw case ``index`` of the ``master_seed`` universe from the grammar.

    Each case owns its own substreams (``fuzz:<index>:topology`` etc.),
    so cases are independent and any one of them regenerates without
    replaying the ones before it.
    """
    streams = RandomStreams(master_seed)
    topo = streams.get(f"fuzz:{index}:topology")
    traffic = streams.get(f"fuzz:{index}:traffic")
    chaos = streams.get(f"fuzz:{index}:faults")

    n_pads = int(topo.integers(2, 6))
    pads = tuple(f"P{i + 1}" for i in range(n_pads))
    extra_links = tuple(
        (pads[i], pads[j])
        for i in range(n_pads)
        for j in range(i + 1, n_pads)
        if topo.random() < 0.5
    )

    flows: List[Tuple[str, str, float]] = []
    for pad in pads:
        if traffic.random() < 0.75:
            rate = _RATES_PPS[int(traffic.integers(0, len(_RATES_PPS)))]
            if traffic.random() < 0.5:
                flows.append((pad, "B", rate))
            else:
                flows.append(("B", pad, rate))
    if not flows:
        flows.append((pads[0], "B", 32.0))

    faults: List[FaultEvent] = []
    for _ in range(int(chaos.integers(0, 4))):
        start = 1.0 + float(chaos.random()) * (duration - 2.0)
        span = 0.5 + 2.5 * float(chaos.random())
        end = min(start + span, duration - 0.5)
        pad = pads[int(chaos.integers(0, n_pads))]
        kind = int(chaos.integers(0, 4))
        if kind == 0:
            faults.append(LinkFlap("B", pad, start=start, end=end))
        elif kind == 1:
            faults.append(BurstNoise(
                start=start, end=end,
                error_rate=0.2 + 0.5 * float(chaos.random()),
            ))
        elif kind == 2:
            on_at = start + span if start + span < duration else None
            faults.append(StationChurn(station=pad, off_at=start, on_at=on_at))
        else:
            faults.append(QueueSqueeze(
                station=pad, capacity=1 + int(chaos.integers(0, 3)),
                start=start, end=end,
            ))

    run_seed = int(streams.get(f"fuzz:{index}:seed").integers(0, 2**31 - 1))
    return FuzzScenario(
        seed=run_seed, duration=duration, pads=pads,
        extra_links=extra_links, flows=tuple(flows), faults=tuple(faults),
    )


@dataclass
class FuzzFailure:
    """A divergent case, after shrinking and bisection."""

    index: int
    case: FuzzScenario
    shrunk: FuzzScenario
    divergence: CellDivergence
    point: Optional[DivergencePoint]
    repro: Dict[str, Any] = field(default_factory=dict)


def _build_repro(kind: str, subject: Dict[str, Any], profile: RunProfile,
                 divergence: CellDivergence,
                 point: Optional[DivergencePoint]) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "schema": REPRO_SCHEMA,
        "kind": kind,
        "profile": profile.to_dict(),
        "mode_a": divergence.mode_a.to_dict(),
        "mode_b": divergence.mode_b.to_dict(),
        "digest_a": divergence.digest_a,
        "digest_b": divergence.digest_b,
    }
    payload.update(subject)
    if point is not None:
        payload["divergence"] = point.to_dict()
    return payload


def scenario_repro(case: FuzzScenario, profile: RunProfile,
                   divergence: CellDivergence,
                   point: Optional[DivergencePoint]) -> Dict[str, Any]:
    """Minimal-repro JSON payload for a scenario-level divergence."""
    return _build_repro(
        "scenario",
        {"scenario": case.to_dict(), "seed": case.seed,
         "duration": case.duration},
        profile, divergence, point,
    )


def experiment_repro(exp_id: str, seed: int, duration: float, warmup: float,
                     profile: RunProfile, divergence: CellDivergence,
                     point: Optional[DivergencePoint]) -> Dict[str, Any]:
    """Minimal-repro JSON payload for an experiment-level divergence."""
    return _build_repro(
        "experiment",
        {"exp_id": exp_id, "seed": seed, "duration": duration,
         "warmup": warmup},
        profile, divergence, point,
    )


def write_repro(path: str, payload: Mapping[str, Any]) -> Path:
    """Write a repro payload as stable, diffable JSON."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                   encoding="utf-8")
    return out


def load_repro(path: str) -> Dict[str, Any]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("schema") != REPRO_SCHEMA:
        raise ValueError(f"unsupported repro schema {payload.get('schema')!r}")
    return payload


def replay_repro(payload: Mapping[str, Any]) -> Optional[DivergencePoint]:
    """Re-run a scenario repro's two configurations; relocalize or clear.

    Returns the freshly-bisected divergence point, or None when the two
    configurations now agree (i.e. the bug is fixed).
    """
    if payload.get("kind") != "scenario":
        raise ValueError("replay_repro handles scenario repros; use "
                         "DiffOracle for experiment repros")
    case = FuzzScenario.from_dict(payload["scenario"])
    profile = RunProfile.from_dict(payload["profile"])
    mode_a = ExecMode.from_dict(payload["mode_a"])
    mode_b = ExecMode.from_dict(payload["mode_b"])
    oracle = ScenarioOracle(modes=[mode_a, mode_b], profile=profile)
    return locate_first_divergence(
        oracle.replayer(case, mode_a),
        oracle.replayer(case, mode_b),
        float(payload.get("duration", case.duration)),
    )


def run_fuzz(
    budget: int,
    seed: int,
    duration: float = DEFAULT_CASE_DURATION_S,
    modes: Optional[Sequence[ExecMode]] = None,
    profile: Optional[RunProfile] = None,
    shrink: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> Optional[FuzzFailure]:
    """Fuzz up to ``budget`` cases; stop at (and localize) the first failure.

    Returns None when every case passes the mode matrix clean.
    """
    oracle = ScenarioOracle(modes=modes, profile=profile)
    say = progress if progress is not None else (lambda message: None)
    for index in range(budget):
        case = generate_case(seed, index, duration=duration)
        say(f"case {index}/{budget}: {case.describe()}")
        divergence = oracle.check(case)
        if divergence is None:
            continue
        say(f"case {index} diverges: {divergence.describe()}")
        shrunk = case
        if shrink:
            shrunk = shrink_case(
                case, lambda smaller: oracle.check(smaller) is not None
            )
            say(f"shrunk to: {shrunk.describe()}")
        final = oracle.check(shrunk) or divergence
        point = locate_first_divergence(
            oracle.replayer(shrunk, final.mode_a),
            oracle.replayer(shrunk, final.mode_b),
            shrunk.duration,
        )
        repro = scenario_repro(shrunk, oracle.profile, final, point)
        return FuzzFailure(
            index=index, case=case, shrunk=shrunk,
            divergence=final, point=point, repro=repro,
        )
    return None
