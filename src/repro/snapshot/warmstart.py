"""Warm-start plumbing: keyed snapshot stores for sweep fan-out.

A sweep cell whose profile carries ``WarmStart(at=T, store=DIR)`` gets
its scenario through this module: the builder's canonical spec, the
physics profile digest, the capture time and the code version hash into
a store key; a hit restores the snapshot into the fresh build, a miss
runs the warm-up once, captures, and saves (atomically, so concurrent
workers racing on the same key both land a complete file and
``os.replace`` makes last-writer-wins safe).

The key deliberately excludes the store *path* — two stores holding
snapshots of the same keyed build hold byte-identical snapshots — and
includes :func:`~repro.runner.cache.code_version`, so any source change
invalidates every stored snapshot the same way it invalidates the
result cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Optional, Union

from repro.snapshot.snapshot import FORMAT_VERSION, Snapshot

__all__ = ["apply_warm_start", "warm_key", "store_digest"]


def _canon(value: Any) -> Any:
    """Canonical JSON-able form of a builder spec fragment.

    Hash-randomization-proof (sets are sorted) and address-proof
    (objects render as type name + sorted attributes; callables as their
    name only — scripted ``at()`` actions are identified by position and
    fire time, not by code identity, which is as strong a key as a
    source hash short of disassembly and is documented as such).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__dc__": type(value).__name__,
                **{f.name: _canon(getattr(value, f.name))
                   for f in dataclasses.fields(value)}}
    if isinstance(value, dict):
        return {str(k): _canon(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_canon(v) for v in value), key=repr)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if callable(value):
        return f"<callable:{getattr(value, '__name__', '?')}>"
    return {"__obj__": type(value).__name__,
            **{k: _canon(v) for k, v in sorted(vars(value).items())}}


def warm_key(builder: Any, at: float, traced: bool = False) -> str:
    """Deterministic store key for (builder spec, physics profile, T).

    ``traced`` is the *effective* trace enablement of the build (the
    profile's ``trace`` and ``sanitize`` knobs and an open digest or
    trace capture all force it): a traced warm-up carries the t<T
    records a digest or sanitizer replay needs, an untraced one does
    not, so the two must never share a snapshot.  The raw ``trace`` and
    ``sanitize`` knobs are stripped from the key's profile digest for
    the same reason — only the effective flag matters, so a store
    pre-warmed with ``trace=True`` serves sweeps whose tracing comes
    from ``--digest`` or ``REPRO_SANITIZE``.
    """
    from repro.runner.cache import code_version  # lazy: avoid layer cycle

    spec = {key: value for key, value in vars(builder).items()
            if key != "profile"}
    blob = json.dumps({
        "builder": _canon(spec),
        "profile": builder.profile.but(warm_start=None, trace=False,
                                       sanitize=False).digest(),
        "traced": bool(traced),
        "at": float(at),
        "code": code_version(),
        "format": FORMAT_VERSION,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def apply_warm_start(scenario: Any, builder: Any, warm: Any) -> None:
    """Land ``scenario`` at ``warm.at`` via the store, warming it on miss.

    Called by :meth:`ScenarioBuilder.build` as its final step when the
    profile carries a :class:`~repro.core.config.WarmStart`.  Either
    branch leaves the scenario at ``sim.now == warm.at`` with state
    byte-identical to an uninterrupted run (the restore-equals-
    straight-through invariant the test matrix enforces).
    """
    store = Path(warm.store)
    key = warm_key(builder, warm.at, traced=scenario.sim.trace.enabled)
    path = store / f"{key}.snap"
    if path.exists():
        snapshot = Snapshot.load(path)
        snapshot.restore(scenario, builder)
        restored = True
    else:
        scenario.sim.run(until=warm.at)
        snapshot = Snapshot.capture(scenario, builder)
        snapshot.save(path)
        restored = False
    scenario.warm_start_info = {
        "key": key,
        "path": str(path),
        "restored": restored,
        "digest": snapshot.digest,
        "at": warm.at,
        "events_at_branch": scenario.sim.events_fired,
    }


def store_digest(store: Union[str, Path]) -> Optional[str]:
    """Content digest over a snapshot store, or None when empty/absent.

    Folded into :class:`~repro.core.config.WarmStart` (and hence the
    profile digest and the result-cache key) by the CLI, so results
    warm-started from different snapshot contents can never share a
    cache entry.
    """
    store = Path(store)
    if not store.is_dir():
        return None
    names = sorted(p.name for p in store.glob("*.snap"))
    if not names:
        return None
    acc = hashlib.sha256()
    for name in names:
        acc.update(name.encode("utf-8"))
        acc.update(hashlib.sha256((store / name).read_bytes()).digest())
    return acc.hexdigest()
