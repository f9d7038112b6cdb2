"""Branch-fork: N divergent futures from one warmed-up snapshot.

A fork builds a fresh scenario from (a clone of) the original builder,
restores the snapshot into it, then perturbs exactly the state the
caller names: designated RNG substreams take the state of a fresh
:class:`~repro.sim.rng.Stream` seeded from ``(seed, crc32(name),
0xF0BB, salt)``, and a restricted set of *non-physics* profile knobs
may be swapped.  Physics knobs (timing, bitrate, topology, faults) are
deliberately rejected — changing them would make the captured
in-flight state (transmissions mid-air, armed timeouts) physically
inconsistent with the world it restores into.
Branch points that vary physics should snapshot before the divergence
is *installed*, i.e. vary the builder and warm-start each variant
separately.
"""

from __future__ import annotations

import copy
import zlib
from typing import Any, Dict, Optional, Sequence

from repro.sim.rng import Stream
from repro.snapshot.registry import SnapshotError
from repro.snapshot.snapshot import Snapshot

__all__ = ["fork", "FORKABLE_KNOBS"]

#: Profile fields a fork may swap at the branch point.  Everything else
#: changes the physics the captured state was produced under — or, for
#: ``metrics``, the sampler state the snapshot carries (its tick count
#: is only meaningful at the captured interval).
FORKABLE_KNOBS = frozenset({"queue", "trace", "sanitize"})

#: Domain-separation constant so fork re-seeds can never collide with
#: RandomStreams' own (seed, crc32(name)) derivation.
_FORK_DOMAIN = 0xF0BB


def fork(snapshot: Snapshot, builder: Any, *, salt: int = 0,
         streams: Sequence[str] = (),
         profile_changes: Optional[Dict[str, Any]] = None) -> Any:
    """Build a scenario branched from ``snapshot`` at its capture point.

    Parameters
    ----------
    snapshot:
        A capture of a scenario built from ``builder`` (or an equivalent
        builder — same topology, protocol, seed and physics profile).
    builder:
        The originating :class:`~repro.topo.builder.ScenarioBuilder`.
        It is shallow-cloned; the original is untouched.
    salt:
        Branch discriminator folded into every re-seed.  Two forks with
        the same salt are byte-identical; different salts diverge on the
        named ``streams``.
    streams:
        RNG substream names (``"traffic:f0"``, ``"mac:B"``,
        ``"fault:gilbert_elliott:main"``, ...) to re-seed at the branch
        point.  Unnamed streams continue their captured sequences.
    profile_changes:
        Optional knob swaps, restricted to :data:`FORKABLE_KNOBS`.
    """
    changes = dict(profile_changes or {})
    bad = sorted(set(changes) - FORKABLE_KNOBS)
    if bad:
        raise SnapshotError(
            f"fork cannot change physics knobs {bad!r}; forkable knobs "
            f"are {sorted(FORKABLE_KNOBS)!r} — vary the builder and "
            "warm-start separately instead")
    clone = copy.copy(builder)
    clone.profile = builder.profile.but(warm_start=None, **changes)
    scenario = clone.build()
    fresh_trace_enabled = scenario.sim.trace.enabled
    snapshot.restore(scenario, clone)
    if scenario.sanitize and not scenario.sim.trace.enabled:
        # The sanitizer replays the trace from t=0; one that starts at
        # the branch point opens mid-exchange and reads as trace gaps.
        raise SnapshotError("fork cannot sanitize a branch of an untraced "
                            "snapshot; capture it with trace=True")
    # The fork's trace knob wins over the captured flag: enabling tracing
    # at the branch point yields a trace that starts at the fork (the
    # warm-up was captured untraced and cannot be invented after the
    # fact).
    scenario.sim.trace.enabled = fresh_trace_enabled
    seed = scenario.sim.streams.seed
    for name in streams:
        key = zlib.crc32(name.encode("utf-8"))
        fresh = Stream((seed, key, _FORK_DOMAIN, salt))
        scenario.sim.streams.get(name).state = fresh.state
    scenario.warm_start_info = {
        "forked": True,
        "salt": salt,
        "reseeded": tuple(streams),
        "digest": snapshot.digest,
        "at": snapshot.at,
    }
    return scenario
