"""Branch-fork semantics: controlled divergence from one checkpoint."""

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
