"""Stable-token registry: the identity layer of the snapshot codec.

A snapshot must round-trip *references* to long-lived simulator objects
(the kernel, the medium, each MAC, each stream) without serializing the
objects themselves — a pending event's callback is a bound method of one
of them, and on restore it has to resolve to the *target* scenario's
instance, not a deep copy.  The registry assigns each such object a
stable string token; the codec writes tokens into the pickle stream as
persistent IDs and the load side resolves them against a registry built
over the restore target.

Tokens are deterministic functions of the scenario topology (station
names, stream ids, noise-model position in the builder), so a registry
built over a fresh build of the same :class:`~repro.topo.builder.
ScenarioBuilder` resolves every token a capture of an equivalent
scenario emitted.  Objects that are *not* registered serialize by value
(frozen dataclasses, packets, timers, transmissions); pickle's memo
keeps identity sharing within one snapshot document.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

__all__ = ["SnapshotRegistry", "SnapshotError"]


class SnapshotError(RuntimeError):
    """A capture, save, load or restore could not be completed."""


class SnapshotRegistry:
    """Bidirectional object <-> token map for one simulator instance."""

    def __init__(self) -> None:
        self._by_token: Dict[str, Any] = {}
        self._by_id: Dict[int, str] = {}
        self._streams = None  # RandomStreams for dynamic rng:<name> tokens

    # ---------------------------------------------------------- registration
    def register(self, token: str, obj: Any) -> None:
        if token in self._by_token and self._by_token[token] is not obj:
            raise SnapshotError(f"token {token!r} already registered "
                                "to a different object")
        self._by_token[token] = obj
        self._by_id[id(obj)] = token

    def bind_streams(self, streams: Any) -> None:
        """Attach a :class:`~repro.sim.rng.RandomStreams` for rng tokens.

        Streams are cached by traffic sources and the fault injector;
        rather than enumerating them up front, any stream owned by
        ``streams`` maps to ``rng:<name>`` on capture and
        resolves through ``streams.get(name)`` on restore (which lazily
        re-derives the substream, whose state the kernel section of the
        snapshot then overwrites).
        """
        self._streams = streams
        self._refresh_rng_tokens()

    def _refresh_rng_tokens(self) -> None:
        if self._streams is None:
            return
        for name, stream in self._streams._streams.items():
            self._by_id[id(stream)] = f"rng:{name}"

    # ------------------------------------------------------------ resolution
    def token_for(self, obj: Any) -> Optional[str]:
        token = self._by_id.get(id(obj))
        if token is None and self._streams is not None:
            # A substream may have been derived since the last refresh.
            self._refresh_rng_tokens()
            token = self._by_id.get(id(obj))
        return token

    def resolve(self, token: str) -> Any:
        if token.startswith("rng:"):
            if self._streams is None:
                raise SnapshotError(
                    f"cannot resolve {token!r}: no RandomStreams bound")
            return self._streams.get(token[4:])
        try:
            return self._by_token[token]
        except KeyError:
            raise SnapshotError(
                f"snapshot references {token!r} but the restore target "
                "does not define it — was the scenario built from an "
                "equivalent builder?") from None

    def tokens(self) -> Iterator[Tuple[str, Any]]:
        return iter(self._by_token.items())

    def __contains__(self, token: str) -> bool:
        return token in self._by_token


def registry_for_scenario(scenario: Any,
                          builder: Any = None) -> SnapshotRegistry:
    """Build the canonical registry for a built scenario.

    The token scheme must be identical on the capture and restore sides;
    everything is keyed by names the builder assigns deterministically.
    """
    reg = SnapshotRegistry()
    sim = scenario.sim
    reg.register("sim", sim)
    reg.register("trace", sim.trace)
    reg.register("medium", scenario.medium)
    reg.register("recorder", scenario.recorder)
    reg.register("scenario", scenario)
    for name, station in scenario.stations.items():
        reg.register(f"station:{name}", station)
        reg.register(f"mac:{name}", station.mac)
        dispatcher = getattr(station, "dispatcher", None)
        if dispatcher is not None:
            reg.register(f"dispatcher:{name}", dispatcher)
    for stream_id, stream in scenario.streams.items():
        reg.register(f"stream:{stream_id}", stream)
        source = getattr(stream, "source", None)
        if source is not None:
            reg.register(f"source:{stream_id}", source)
    if scenario.fault_injector is not None:
        reg.register("injector", scenario.fault_injector)
    metrics = getattr(scenario, "metrics", None)
    if metrics is not None:
        sampler = getattr(metrics, "sampler", None)
        if sampler is not None:
            reg.register("sampler", sampler)
    if builder is not None:
        for index, model in enumerate(getattr(builder, "_noise", ())):
            reg.register(f"noise:{index}", model)
        for index, (_, action) in enumerate(getattr(builder, "_events", ())):
            reg.register(f"builder_event:{index}", action)
    reg.bind_streams(sim.streams)
    return reg
