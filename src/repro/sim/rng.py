"""Named, independently-seeded random streams.

A simulation mixes several kinds of randomness: contention-slot draws at each
station, traffic inter-arrival jitter, per-packet noise.  Drawing them all
from one generator makes results fragile — adding one station perturbs every
other station's sequence.  :class:`RandomStreams` derives an independent
``numpy`` generator per name from a single master seed, so component A's
draws never depend on how often component B draws.
"""

from __future__ import annotations

import zlib
from typing import Dict

# numpy imports numpy.random on first use; naming it here loads it with
# the kernel, so a sweep's parent imports it once before it forks workers.
from numpy.random import Generator, SeedSequence, default_rng


class RandomStreams:
    """Registry of named :class:`numpy.random.Generator` instances.

    Stream seeds are derived as ``(master_seed, crc32(name))`` through
    :class:`numpy.random.SeedSequence`, so the same ``(seed, name)`` pair
    always yields the same sequence regardless of creation order.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, Generator] = {}
        self._keys: Dict[int, str] = {}

    def get(self, name: str) -> Generator:
        """Return (creating on first use) the generator for ``name``.

        Raises :class:`ValueError` when ``crc32(name)`` collides with a
        previously created stream of a *different* name: the two would
        silently share one seed sequence, so every draw on one would be
        correlated with the other — the opposite of the independence
        this class exists to provide.
        """
        stream = self._streams.get(name)
        if stream is None:
            key = zlib.crc32(name.encode("utf-8"))
            owner = self._keys.get(key)
            if owner is not None and owner != name:
                raise ValueError(
                    f"stream name {name!r} collides with existing stream "
                    f"{owner!r} under crc32 (key {key}); the two would share "
                    f"one generator seed — rename one of them"
                )
            sequence = SeedSequence(entropy=(self.seed, key))
            stream = default_rng(sequence)
            self._streams[name] = stream
            self._keys[key] = name
        return stream

    def uniform_slots(self, name: str, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` — the paper's slot draw."""
        if high < low:
            high = low
        return int(self.get(name).integers(low, high + 1))

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"
