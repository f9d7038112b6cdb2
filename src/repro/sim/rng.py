"""Named, independently-seeded random streams.

A simulation mixes several kinds of randomness: contention-slot draws at each
station, traffic inter-arrival jitter, per-packet noise.  Drawing them all
from one generator makes results fragile — adding one station perturbs every
other station's sequence.  :class:`RandomStreams` derives an independent
:class:`Stream` per name from a single master seed, so component A's draws
never depend on how often component B draws.

A :class:`Stream` is a pure-Python PCG64 that reproduces numpy's
``default_rng(SeedSequence(entropy))`` bit for bit: the seeding, the
generator, ``random()`` and ``integers()``.  A run that draws only those
never imports numpy.  ``exponential()`` uses numpy's ziggurat, so it hands
the stream's state to a numpy ``PCG64``, draws, and takes the state back;
numpy is imported on the first exponential draw.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union, overload

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK53 = (1 << 53) - 1
_MASK128 = (1 << 128) - 1
#: ``x * _TWICE`` is a 64-bit ``x`` in both halves of 128 bits, so a
#: 64-bit window of it at bit ``r`` is ``x`` rotated right by ``r``.
_TWICE = (1 << 64) + 1
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# numpy's SeedSequence hashing constants.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _entropy_words(entropy: Sequence[int]) -> List[int]:
    """Each integer as little-endian uint32 words, at least one apiece."""
    words = []
    for value in entropy:
        value = int(value)
        if value < 0:
            raise ValueError(f"expected non-negative integer entropy, got {value}")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def _seed_state(entropy: Sequence[int]) -> Tuple[int, int]:
    """``(state, inc)`` of numpy's ``PCG64(SeedSequence(entropy))``."""
    words = _entropy_words(entropy)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(words)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[src]))

    # generate_state(4, uint64): eight uint32 words, paired little-endian.
    hash_const = _INIT_B
    state_words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state_words.append(value ^ value >> 16)
    seed = [state_words[2 * i] | state_words[2 * i + 1] << 32 for i in range(4)]

    # pcg64_set_seed: 128-bit seed and stream from the word pairs, then
    # two LCG steps around adding the seed.
    inc = ((seed[2] << 64 | seed[3]) << 1 | 1) & _MASK128
    state = (inc + (seed[0] << 64 | seed[1])) & _MASK128
    return (state * _PCG_MULT + inc) & _MASK128, inc


#: The numpy generator that exponential draws borrow.  Each draw sets its
#: state first, so it carries nothing from one draw to the next.
_numpy_generator: Any = None


class Stream:
    """One PCG64 stream, bit-identical to numpy's default ``Generator``.

    A 64-bit output is the LCG step ``state = state * mult + inc`` (mod
    2**128) followed by XSL-RR: the state's two halves xored, rotated
    right by its top six bits.  ``random()`` and ``integers()`` inline
    both.  A 32-bit draw uses half an output and keeps the other half for
    the next one, as numpy does.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, entropy: Sequence[int]) -> None:
        self._state, self._inc = _seed_state(entropy)
        self._has_uint32 = 0
        self._uinteger = 0

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        twice = (((state >> 64) ^ state) & _MASK64) * _TWICE
        return (twice >> (state >> 122)) & _MASK64

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        out = self._next64()
        self._has_uint32 = 1
        self._uinteger = out >> 32
        return out & _MASK32

    def random(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 random bits."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        twice = (((state >> 64) ^ state) & _MASK64) * _TWICE
        return ((twice >> ((state >> 122) + 11)) & _MASK53) * 2.0**-53

    @overload
    def integers(self, low: int, high: Optional[int] = None,
                 size: None = None) -> int: ...

    @overload
    def integers(self, low: int, high: Optional[int], size: int) -> List[int]: ...

    def integers(self, low: int, high: Optional[int] = None,
                 size: Optional[int] = None) -> Union[int, List[int]]:
        """Uniform integer in ``[low, high)`` (``[0, low)`` with one bound).

        Follows numpy's default int64 path: Lemire's method over a 32-bit
        draw when the span ``high - 1 - low`` fits, over a 64-bit draw
        otherwise.  ``size=n`` returns a list of ``n`` such draws.
        """
        if high is None:
            low, high = 0, low
        if size is not None:
            return [self.integers(low, high) for _ in range(size)]
        span = high - 1 - low
        if span < 0:
            raise ValueError("low >= high")
        if low < _INT64_MIN or high - 1 > _INT64_MAX:
            raise ValueError("bounds are out of range for int64")
        if span >= _MASK32:
            return low + self._wide(span)
        if not span:
            return low
        # 32-bit Lemire over the buffered half-word, with its step inlined.
        if self._has_uint32:
            self._has_uint32 = 0
            draw = self._uinteger
        else:
            state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
            twice = (((state >> 64) ^ state) & _MASK64) * _TWICE
            out = (twice >> (state >> 122)) & _MASK64
            self._has_uint32 = 1
            self._uinteger = out >> 32
            draw = out & _MASK32
        excl = span + 1
        m = draw * excl
        if m & _MASK32 < excl:
            threshold = (_MASK32 - span) % excl
            while m & _MASK32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)

    def _wide(self, span: int) -> int:
        """Uniform draw in ``[0, span]`` for spans of 2**32 - 1 and up."""
        if span == _MASK32:
            return self._next32()
        if span == _MASK64:
            return self._next64()
        excl = span + 1
        m = self._next64() * excl
        if m & _MASK64 < excl:
            threshold = (_MASK64 - span) % excl
            while m & _MASK64 < threshold:
                m = self._next64() * excl
        return m >> 64

    def exponential(self, scale: float = 1.0) -> float:
        """Exponential draw with mean ``scale``, through numpy's ziggurat."""
        global _numpy_generator
        if _numpy_generator is None:
            from numpy.random import PCG64, Generator

            _numpy_generator = Generator(PCG64(0))
        bit_generator = _numpy_generator.bit_generator
        bit_generator.state = self.state
        value = float(_numpy_generator.exponential(scale))
        self.state = bit_generator.state
        return value

    @property
    def state(self) -> Dict[str, Any]:
        """numpy's ``PCG64.state`` dict for this stream."""
        return {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": self._has_uint32,
            "uinteger": self._uinteger,
        }

    @state.setter
    def state(self, value: Dict[str, Any]) -> None:
        if value.get("bit_generator") != "PCG64":
            raise ValueError("state must be for a PCG64 RNG")
        self._state = int(value["state"]["state"]) & _MASK128
        self._inc = int(value["state"]["inc"]) & _MASK128
        self._has_uint32 = int(value["has_uint32"])
        self._uinteger = int(value["uinteger"]) & _MASK32


class RandomStreams:
    """Registry of named :class:`Stream` instances.

    Stream seeds are derived from ``(master_seed, crc32(name))`` as
    numpy's ``SeedSequence`` would, so the same ``(seed, name)`` pair
    always yields the same sequence regardless of creation order.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, Stream] = {}
        self._keys: Dict[int, str] = {}

    def get(self, name: str) -> Stream:
        """Return (creating on first use) the stream for ``name``.

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
            stream = Stream((self.seed, key))
            self._streams[name] = stream
            self._keys[key] = name
        return stream

    def uniform_slots(self, name: str, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` — the paper's slot draw."""
        if high < low:
            high = low
        return self.get(name).integers(low, high + 1)

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"
