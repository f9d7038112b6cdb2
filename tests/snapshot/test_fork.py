"""Branch-fork semantics: controlled divergence from one checkpoint."""

import zlib

import numpy as np
import pytest

from repro.snapshot import FORKABLE_KNOBS, Snapshot, SnapshotError, fork
from repro.topo.builder import ScenarioBuilder

BRANCH_AT = 10.0
HORIZON = 25.0


def poisson_builder(seed=4):
    """Two pads with Poisson arrivals: the traffic streams keep drawing
    after the branch point, so re-seeding them actually diverges (CBR
    draws its phase once at build time and never again).
    """
    builder = ScenarioBuilder(seed=seed, medium="graph", protocol="macaw")
    builder.add_base("B")
    builder.add_pad("P1")
    builder.add_pad("P2")
    builder.clique("B", "P1", "P2")
    builder.udp("P1", "B", 40.0, arrival="poisson")
    builder.udp("P2", "B", 40.0, arrival="poisson")
    builder.profile = builder.profile.but(trace=True)
    return builder


def make_snapshot(seed=4):
    builder = poisson_builder(seed)
    scenario = builder.build()
    scenario.sim.run(until=BRANCH_AT)
    return Snapshot.capture(scenario, builder), builder


def finish(scenario):
    scenario.sim.run(until=HORIZON)
    return scenario.sim.events_fired, scenario.sim.trace.digest()


def test_fork_without_mutations_continues_the_original():
    snap, builder = make_snapshot()
    reference = finish(poisson_builder(seed=4).build())
    assert finish(fork(snap, builder)) == reference


def test_same_salt_forks_are_identical():
    snap, builder = make_snapshot()
    streams = ("traffic:P1-B",)
    first = finish(fork(snap, builder, salt=1, streams=streams))
    second = finish(fork(snap, builder, salt=1, streams=streams))
    assert first == second


def test_different_salts_diverge():
    snap, builder = make_snapshot()
    streams = ("traffic:P1-B",)
    first = finish(fork(snap, builder, salt=1, streams=streams))
    second = finish(fork(snap, builder, salt=2, streams=streams))
    assert first != second


@pytest.mark.parametrize("salt", [1, 2**40])
def test_reseed_matches_numpy_seed_sequence(salt):
    snap, builder = make_snapshot()
    name = "traffic:P1-B"
    scenario = fork(snap, builder, salt=salt, streams=(name,))
    key = zlib.crc32(name.encode("utf-8"))
    donor = np.random.default_rng(
        np.random.SeedSequence(entropy=(4, key, 0xF0BB, salt)))
    assert scenario.sim.streams.get(name).state == donor.bit_generator.state


def test_unreseeded_fork_differs_from_reseeded():
    snap, builder = make_snapshot()
    plain = finish(fork(snap, builder))
    reseeded = finish(fork(snap, builder, salt=9,
                           streams=("traffic:P1-B",)))
    assert plain != reseeded


def test_fork_records_branch_metadata():
    snap, builder = make_snapshot()
    scenario = fork(snap, builder, salt=5, streams=("traffic:P1-B",))
    info = scenario.warm_start_info
    assert info["forked"] is True
    assert info["salt"] == 5
    assert info["reseeded"] == ("traffic:P1-B",)
    assert info["digest"] == snap.digest
    assert info["at"] == BRANCH_AT


def test_fork_rejects_physics_knobs():
    snap, builder = make_snapshot()
    with pytest.raises(SnapshotError, match="physics"):
        fork(snap, builder, profile_changes={"faults": None})
    with pytest.raises(SnapshotError, match="physics"):
        fork(snap, builder, profile_changes={"timing": object()})


def test_fork_swaps_forkable_queue_knob():
    assert "queue" in FORKABLE_KNOBS
    snap, builder = make_snapshot()
    reference = finish(fork(snap, builder))
    wheeled = fork(snap, builder, profile_changes={"queue": "wheel"})
    assert wheeled.sim.queue_name == "wheel"
    assert finish(wheeled) == reference


def test_fork_leaves_the_original_builder_untouched():
    snap, builder = make_snapshot()
    before = builder.profile
    fork(snap, builder, profile_changes={"queue": "wheel"})
    assert builder.profile is before


def test_fork_swaps_forkable_sanitize_knob():
    # The fork's knob must survive the restore: the captured scenario
    # ran unsanitized.
    assert "sanitize" in FORKABLE_KNOBS
    snap, builder = make_snapshot()
    checked = fork(snap, builder, profile_changes={"sanitize": True})
    assert checked.sanitize
    checked.run(HORIZON)
    assert checked.conformance is not None and checked.conformance.ok


def test_fork_refuses_the_metrics_knob():
    # The snapshot carries the sampler's position at the captured
    # interval: adding or removing a sampler cannot restore, and a new
    # interval would replay the old tick count at the wrong cadence.
    assert "metrics" not in FORKABLE_KNOBS
    snap, builder = make_snapshot()
    for value in (True, 2.0):
        with pytest.raises(SnapshotError, match="metrics"):
            fork(snap, builder, profile_changes={"metrics": value})


def test_fork_refuses_to_sanitize_an_untraced_snapshot():
    # Its trace would start mid-exchange at the branch point, and the
    # sanitizer would report the missing prefix as protocol violations.
    builder = poisson_builder()
    builder.profile = builder.profile.but(trace=False, sanitize=False)
    scenario = builder.build()
    scenario.sim.run(until=BRANCH_AT)
    snap = Snapshot.capture(scenario, builder)
    with pytest.raises(SnapshotError, match="untraced"):
        fork(snap, builder, profile_changes={"sanitize": True})
