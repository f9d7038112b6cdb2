"""Warm-start sweeps: keyed stores, run_cells integration, cache keys.

The acceptance contract: ``run_cells(profile=RunProfile(warm_start=...))``
produces per-cell digests byte-identical to cold runs while simulating
measurably fewer in-process events, and the warm-start descriptor folds
into the profile digest so warm results can never be served from (or
poison) cold cache entries.
"""

import pytest

from repro.core.config import RunProfile, WarmStart
from repro.runner import expand_cells
from repro.runner.cache import ResultCache
from repro.service import run_cells
from repro.snapshot import store_digest, warm_key
from repro.topo.figures import fig2_two_pads

BOUNDS = dict(duration=30.0, warmup=5.0)
BRANCH_AT = 10.0


def warm(tmp_path, **kwargs):
    return WarmStart(at=BRANCH_AT, store=str(tmp_path / "store"), **kwargs)


def warm_profile(tmp_path, **kwargs):
    return RunProfile(warm_start=warm(tmp_path, **kwargs))


def digests(outcomes):
    return [(o.cell, o.digest) for o in outcomes]


# --------------------------------------------------------- run_cells
def test_warm_run_cells_matches_cold_digests(tmp_path):
    cells = expand_cells(["table9"], [0, 1], **BOUNDS)
    cold = run_cells(cells, jobs=1, collect_digests=True)
    priming = run_cells(cells, jobs=1, collect_digests=True,
                        profile=warm_profile(tmp_path))
    restoring = run_cells(cells, jobs=1, collect_digests=True,
                          profile=warm_profile(tmp_path))
    assert digests(priming) == digests(cold)
    assert digests(restoring) == digests(cold)
    assert all(o.digest is not None for o in cold)


def test_warm_store_holds_one_snapshot_per_variant(tmp_path):
    # table9 builds two scenarios per seed (maca + macaw), each with its
    # own builder spec and hence its own store key.
    run_cells(expand_cells(["table9"], [0], **BOUNDS), jobs=1,
              profile=warm_profile(tmp_path))
    store = tmp_path / "store"
    first = sorted(p.name for p in store.glob("*.snap"))
    assert len(first) == 2
    # A second run restores: no new keys, contents untouched.
    before = {p.name: p.read_bytes() for p in store.glob("*.snap")}
    run_cells(expand_cells(["table9"], [0], **BOUNDS), jobs=1,
              profile=warm_profile(tmp_path))
    assert sorted(p.name for p in store.glob("*.snap")) == first
    assert {p.name: p.read_bytes() for p in store.glob("*.snap")} == before


def test_warm_restore_skips_warmup_events(tmp_path):
    builder = fig2_two_pads(protocol="macaw", seed=0)
    builder.profile = builder.profile.but(trace=True)
    cold = builder.build()
    cold.sim.run(until=BOUNDS["duration"])
    reference = (cold.sim.events_fired, cold.sim.trace.digest())

    def warm_build():
        b = fig2_two_pads(protocol="macaw", seed=0)
        b.profile = b.profile.but(trace=True, warm_start=warm(tmp_path))
        return b.build()

    primed = warm_build()
    assert primed.warm_start_info["restored"] is False

    restored = warm_build()
    info = restored.warm_start_info
    assert info["restored"] is True
    assert info["events_at_branch"] > 0
    assert restored.sim.now == BRANCH_AT

    restored.sim.run(until=BOUNDS["duration"])
    assert (restored.sim.events_fired, restored.sim.trace.digest()) == reference
    # The in-process work really shrank: only the post-branch slice ran.
    simulated = restored.sim.events_fired - info["events_at_branch"]
    assert 0 < simulated < reference[0]


def test_warm_start_keeps_the_trace_capture(tmp_path):
    # The warming run had no trace capture open; the restored run must
    # still hand its records to the one that is.
    from repro.experiments.registry import get_experiment
    from repro.topo.builder import capturing

    exp = get_experiment("table9")
    warm_start = RunProfile(warm_start=WarmStart(at=5.0,
                                                 store=str(tmp_path / "store")))

    def runs(profile, **capture):
        with capturing(**capture) as captured:
            exp.run(seed=0, duration=10.0, warmup=0.0, profile=profile)
        return captured

    cold = runs(RunProfile(), digests=True, traces=True)
    runs(warm_start, digests=True)  # warms the store, digests only
    warm = runs(warm_start, digests=True, traces=True)  # restores it
    assert len(warm) == len(cold) == 2
    assert [r.digest for r in warm] == [r.digest for r in cold]
    assert [r.records for r in warm] == [r.records for r in cold]
    assert all(r.records for r in cold)


# --------------------------------------------------------- store keys
def test_warm_key_is_stable_and_sensitive():
    base = fig2_two_pads(protocol="macaw", seed=0)
    again = fig2_two_pads(protocol="macaw", seed=0)
    assert warm_key(base, BRANCH_AT) == warm_key(again, BRANCH_AT)
    assert warm_key(base, BRANCH_AT) != warm_key(base, BRANCH_AT + 1.0)
    other_seed = fig2_two_pads(protocol="macaw", seed=1)
    assert warm_key(base, BRANCH_AT) != warm_key(other_seed, BRANCH_AT)
    other_proto = fig2_two_pads(protocol="maca", seed=0)
    assert warm_key(base, BRANCH_AT) != warm_key(other_proto, BRANCH_AT)


def test_warm_key_separates_traced_from_untraced_builds():
    # A traced warm-up carries the t<T records a digest replay needs; an
    # untraced one does not.  Sharing a snapshot across that line once
    # produced empty sweep digests (the CLI primed untraced, the
    # --digest run restored it).
    builder = fig2_two_pads(protocol="macaw", seed=0)
    assert (warm_key(builder, BRANCH_AT, traced=True)
            != warm_key(builder, BRANCH_AT, traced=False))
    # Only the *effective* flag keys the store: tracing forced by the
    # profile knob and tracing forced ambiently (--digest, sanitizer)
    # must land on the same snapshot.
    knobbed = fig2_two_pads(protocol="macaw", seed=0)
    knobbed.profile = knobbed.profile.but(trace=True)
    assert (warm_key(knobbed, BRANCH_AT, traced=True)
            == warm_key(builder, BRANCH_AT, traced=True))


def test_warm_key_ignores_the_store_location():
    base = fig2_two_pads(protocol="macaw", seed=0)
    one = fig2_two_pads(protocol="macaw", seed=0)
    one.profile = one.profile.but(
        warm_start=WarmStart(at=BRANCH_AT, store="/tmp/a"))
    two = fig2_two_pads(protocol="macaw", seed=0)
    two.profile = two.profile.but(
        warm_start=WarmStart(at=BRANCH_AT, store="/tmp/b"))
    # The key strips the warm_start knob entirely: a warm build and a
    # cold build of the same physics share snapshots.
    assert warm_key(one, BRANCH_AT) == warm_key(base, BRANCH_AT)
    assert warm_key(two, BRANCH_AT) == warm_key(base, BRANCH_AT)


def test_store_digest_tracks_contents(tmp_path):
    store = tmp_path / "store"
    assert store_digest(store) is None
    run_cells(expand_cells(["table9"], [0], **BOUNDS), jobs=1,
              profile=warm_profile(tmp_path))
    first = store_digest(store)
    assert first is not None
    assert store_digest(store) == first
    snap = next(store.glob("*.snap"))
    snap.write_bytes(snap.read_bytes() + b"x")
    assert store_digest(store) != first


# --------------------------------------------------- cache separation
def test_profile_digest_separates_warm_from_cold():
    cold = RunProfile()
    warmed = cold.but(warm_start=WarmStart(at=BRANCH_AT, store="/tmp/a",
                                           digest="abc"))
    assert warmed.digest() != cold.digest()
    # Store *contents* (the digest) key the profile; the path does not.
    moved = cold.but(warm_start=WarmStart(at=BRANCH_AT, store="/tmp/b",
                                          digest="abc"))
    assert moved.digest() == warmed.digest()
    other = cold.but(warm_start=WarmStart(at=BRANCH_AT, store="/tmp/a",
                                          digest="def"))
    assert other.digest() != warmed.digest()


def test_warm_results_never_collide_with_cold_cache_entries(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    cells = expand_cells(["table9"], [0], **BOUNDS)
    cold = run_cells(cells, jobs=1, cache=cache, collect_digests=True)
    assert cold[0].cached is False
    # Same cells, warm profile: a fresh run (and a fresh cache row), not
    # a hit on the cold entry.
    warm_first = run_cells(cells, jobs=1, cache=cache, collect_digests=True,
                           profile=warm_profile(tmp_path, digest="primed"))
    assert warm_first[0].cached is False
    warm_again = run_cells(cells, jobs=1, cache=cache, collect_digests=True,
                           profile=warm_profile(tmp_path, digest="primed"))
    assert warm_again[0].cached is True
    cold_again = run_cells(cells, jobs=1, cache=cache, collect_digests=True)
    assert cold_again[0].cached is True
    assert cold_again[0].digest == warm_again[0].digest == cold[0].digest


def test_warmstart_validates_at():
    with pytest.raises(ValueError):
        WarmStart(at=0.0, store="/tmp/x")
    with pytest.raises(ValueError):
        WarmStart(at=-1.0, store="/tmp/x")
