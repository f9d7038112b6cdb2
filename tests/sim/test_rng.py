"""Random stream registry: determinism, independence and numpy parity."""

import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RandomStreams, Stream


def test_same_seed_and_name_reproduces_sequence():
    a = RandomStreams(seed=42).get("mac:P1")
    b = RandomStreams(seed=42).get("mac:P1")
    assert list(a.integers(0, 1000, 20)) == list(b.integers(0, 1000, 20))


def test_different_names_give_different_sequences():
    streams = RandomStreams(seed=42)
    a = list(streams.get("mac:P1").integers(0, 10**9, 10))
    b = list(streams.get("mac:P2").integers(0, 10**9, 10))
    assert a != b


def test_different_seeds_differ():
    a = list(RandomStreams(seed=1).get("x").integers(0, 10**9, 10))
    b = list(RandomStreams(seed=2).get("x").integers(0, 10**9, 10))
    assert a != b


def test_creation_order_is_irrelevant():
    one = RandomStreams(seed=7)
    one.get("a")
    seq_b_after = list(one.get("b").integers(0, 10**9, 5))
    two = RandomStreams(seed=7)
    seq_b_first = list(two.get("b").integers(0, 10**9, 5))
    assert seq_b_after == seq_b_first


def test_get_returns_same_generator_instance():
    streams = RandomStreams()
    assert streams.get("x") is streams.get("x")


def test_contains():
    streams = RandomStreams()
    assert "x" not in streams
    streams.get("x")
    assert "x" in streams


def test_uniform_slots_bounds():
    streams = RandomStreams(seed=3)
    draws = [streams.uniform_slots("s", 1, 4) for _ in range(500)]
    assert min(draws) == 1
    assert max(draws) == 4


def test_uniform_slots_covers_range_roughly_uniformly():
    streams = RandomStreams(seed=3)
    draws = [streams.uniform_slots("s", 1, 4) for _ in range(4000)]
    counts = np.bincount(draws, minlength=5)[1:5]
    assert all(800 < c < 1200 for c in counts)


def test_uniform_slots_degenerate_range():
    streams = RandomStreams(seed=3)
    assert streams.uniform_slots("s", 2, 2) == 2
    # high < low clamps to low
    assert streams.uniform_slots("s", 3, 1) == 3


def _crc32_colliding_pair():
    """Brute-force two distinct names with equal crc32 (birthday bound)."""
    import zlib

    seen = {}
    i = 0
    while True:
        name = f"s{i}"
        key = zlib.crc32(name.encode("utf-8"))
        if key in seen:
            return seen[key], name
        seen[key] = name
        i += 1


def test_crc32_collision_raises_instead_of_sharing_a_seed():
    import pytest

    first, second = _crc32_colliding_pair()
    assert first != second

    streams = RandomStreams(seed=42)
    streams.get(first)
    with pytest.raises(ValueError, match="collides"):
        streams.get(second)

    # Creation order must not matter: the survivor is whichever came first.
    streams = RandomStreams(seed=42)
    streams.get(second)
    with pytest.raises(ValueError, match="collides"):
        streams.get(first)


def test_collision_guard_leaves_repeat_lookups_alone():
    streams = RandomStreams(seed=42)
    a = streams.get("mac:P1")
    assert streams.get("mac:P1") is a  # same name re-registers freely


# Widths high - low of integers() draws, one or more per span class of
# numpy's int64 path (span = width - 1): 0, 32-bit Lemire, exactly
# 2**32 - 1 (a raw 32-bit draw), 64-bit Lemire.
_WIDTHS = st.sampled_from([1, 2, 7, 1000, 2**31 + 5, 2**32 - 1, 2**32,
                           2**32 + 1, 2**40 + 3, 2**62])
_DRAWS = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("below"), st.integers(1, 2**63 - 1)),
    st.tuples(st.just("integers"), st.integers(-2**40, 2**40), _WIDTHS),
    st.just(("full",)),  # span 2**64 - 1: a raw 64-bit draw
    st.tuples(st.just("size"), st.integers(-5, 5), _WIDTHS, st.integers(0, 4)),
    st.tuples(st.just("exponential"), st.floats(0.01, 100.0)),
    st.just(("state",)),
)
_SEEDS = st.one_of(st.sampled_from([0, 2**32, 2**64]), st.integers(0, 2**32 - 1),
                   st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**100))


def _draw(gen, draw):
    """Apply one draw to a Stream or a numpy Generator; plain Python result."""
    kind = draw[0]
    if kind == "random":
        return float(gen.random())
    if kind == "below":
        return int(gen.integers(draw[1]))
    if kind == "integers":
        low, width = draw[1:]
        return int(gen.integers(low, low + width))
    if kind == "full":
        return int(gen.integers(-2**63, 2**63))
    if kind == "size":
        low, width, size = draw[1:]
        return [int(v) for v in gen.integers(low, low + width, size=size)]
    return float(gen.exponential(draw[1]))


@given(seed=_SEEDS, name=st.text(max_size=12), draws=st.lists(_DRAWS, max_size=40))
@settings(max_examples=200, deadline=None)
def test_stream_matches_numpy_default_rng(seed, name, draws):
    stream = RandomStreams(seed).get(name)
    key = zlib.crc32(name.encode("utf-8"))
    ref = np.random.default_rng(np.random.SeedSequence(entropy=(seed, key)))
    assert stream.state == ref.bit_generator.state
    for draw in draws:
        if draw[0] == "state":
            # Swap states across the two implementations: each must take
            # the other's dict and carry on with the same sequence.
            stream_state = stream.state
            stream = Stream((0,))
            stream.state = ref.bit_generator.state
            ref.bit_generator.state = stream_state
        else:
            assert _draw(stream, draw) == _draw(ref, draw), draw
        assert stream.state == ref.bit_generator.state
