"""The restore invariant: save at T, restore, run on == never stopped.

The non-negotiable contract of ``repro.snapshot``: a scenario captured
mid-run and restored into a fresh build from an equivalent builder must
finish with byte-identical ``events_fired`` and ``Trace.digest()`` to an
uninterrupted run — across protocols, event-queue backends and fault
schedules, for multiple seeds.
"""

import pytest

from repro.fault.presets import get_preset
from repro.snapshot import Snapshot, SnapshotError
from repro.topo.builder import capturing
from repro.topo.figures import fig2_two_pads

HORIZON = 30.0
CAPTURE_AT = 12.0
SEEDS = (0, 1, 2)


def build(protocol, queue, faulted, seed):
    builder = fig2_two_pads(protocol=protocol, seed=seed)
    faults = get_preset("flaky-links") if faulted else None
    builder.profile = builder.profile.but(trace=True, queue=queue, faults=faults)
    return builder


def finish(scenario):
    scenario.sim.run(until=HORIZON)
    return scenario.sim.events_fired, scenario.sim.trace.digest()


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("protocol", ["macaw", "maca", "csma"])
def test_restore_equals_straight_through(protocol, faulted):
    for seed in SEEDS:
        reference = finish(build(protocol, "heap", faulted, seed).build())
        for queue in ("heap", "wheel"):
            source = build(protocol, queue, faulted, seed)
            halfway = source.build()
            halfway.sim.run(until=CAPTURE_AT)
            snap = Snapshot.capture(halfway, source)

            target = build(protocol, queue, faulted, seed)
            fresh = target.build()
            snap.restore(fresh, target)
            assert fresh.sim._now == CAPTURE_AT
            assert finish(fresh) == reference, (
                f"{protocol} seed={seed} queue={queue} "
                f"faulted={faulted}: restored run diverged"
            )


@pytest.mark.parametrize("source_q,target_q",
                         [("heap", "wheel"), ("wheel", "heap")])
def test_cross_backend_restore(source_q, target_q):
    """A heap capture restores into a wheel build (and vice versa)."""
    reference = finish(build("macaw", "heap", True, 2).build())
    source = build("macaw", source_q, True, 2)
    halfway = source.build()
    halfway.sim.run(until=CAPTURE_AT)
    snap = Snapshot.capture(halfway, source)

    target = build("macaw", target_q, True, 2)
    fresh = target.build()
    snap.restore(fresh, target)
    assert fresh.sim.queue_name == target_q
    assert finish(fresh) == reference


def test_capture_is_a_noop_on_the_running_scenario():
    """Capture-then-continue fires the exact uninterrupted sequence."""
    reference = finish(build("macaw", "heap", False, 0).build())
    builder = build("macaw", "heap", False, 0)
    scenario = builder.build()
    scenario.sim.run(until=CAPTURE_AT)
    Snapshot.capture(scenario, builder)
    assert finish(scenario) == reference


def test_recapture_after_restore_hashes_identically():
    """Restore rewinds the global counters, so a recapture is bytewise
    the original snapshot — the fixed point the store digest keys on.
    (Two *cold* captures in one process differ: the event-seq and
    packet-uid watermarks are process-global and advance monotonically.)
    """
    builder = build("macaw", "heap", False, 1)
    scenario = builder.build()
    scenario.sim.run(until=CAPTURE_AT)
    first = Snapshot.capture(scenario, builder)

    target = build("macaw", "heap", False, 1)
    fresh = target.build()
    first.restore(fresh, target)
    second = Snapshot.capture(fresh, target)
    assert second.digest == first.digest


def test_capture_rejects_running_kernel():
    builder = build("macaw", "heap", False, 0)
    scenario = builder.build()
    boom = {}

    def mid_run():
        try:
            Snapshot.capture(scenario, builder)
        except SnapshotError as exc:
            boom["error"] = exc

    scenario.sim.schedule(1.0, mid_run)
    scenario.sim.run(until=2.0)
    assert "dispatching" in str(boom["error"])


def test_capture_rejects_a_digest_only_trace():
    """Before its first flush the trace would pickle and restore without
    its digest prefix; after it, pickling the hasher would fail."""
    builder = fig2_two_pads(protocol="macaw", seed=0)
    builder.profile = builder.profile.but(sanitize=False)
    with capturing(digests=True):
        scenario = builder.build()
    assert not scenario.sim.trace.keeps_rows
    for until in (0.0, CAPTURE_AT):
        scenario.sim.run(until=until)
        with pytest.raises(SnapshotError, match="digest"):
            Snapshot.capture(scenario, builder)
    assert scenario.sim.trace._hashed.rows > 0
