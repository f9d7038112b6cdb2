"""Snapshot file format: save/load round-trip and corruption handling."""

import struct

import pytest

from repro.snapshot import FORMAT_VERSION, MAGIC, Snapshot, SnapshotError
from repro.topo.figures import fig2_two_pads

CAPTURE_AT = 8.0
HORIZON = 20.0


def build(seed=0):
    builder = fig2_two_pads(protocol="macaw", seed=seed)
    builder.profile = builder.profile.but(trace=True)
    return builder


@pytest.fixture(scope="module")
def snap():
    builder = build()
    scenario = builder.build()
    scenario.sim.run(until=CAPTURE_AT)
    return Snapshot.capture(scenario, builder)


def test_save_load_roundtrip(tmp_path, snap):
    path = snap.save(tmp_path / "store" / "mid.snap")
    loaded = Snapshot.load(path)
    assert loaded.digest == snap.digest
    assert loaded.blob == snap.blob
    assert loaded.at == CAPTURE_AT
    assert loaded.meta["queue"] == snap.meta["queue"]
    assert loaded.meta["pending"] == snap.meta["pending"]


def test_loaded_snapshot_restores(tmp_path, snap):
    path = snap.save(tmp_path / "mid.snap")
    builder = build()
    reference = builder.build()
    reference.sim.run(until=HORIZON)
    expected = (reference.sim.events_fired, reference.sim.trace.digest())

    target = build()
    fresh = target.build()
    Snapshot.load(path).restore(fresh, target)
    fresh.sim.run(until=HORIZON)
    assert (fresh.sim.events_fired, fresh.sim.trace.digest()) == expected


def test_load_rejects_non_snapshot_file(tmp_path):
    path = tmp_path / "bogus.snap"
    path.write_bytes(b"definitely not a snapshot")
    with pytest.raises(SnapshotError, match="not a snapshot"):
        Snapshot.load(path)


def test_load_rejects_corrupt_blob(tmp_path, snap):
    path = snap.save(tmp_path / "mid.snap")
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0xFF  # flip a byte inside the pickle blob
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="digest mismatch"):
        Snapshot.load(path)


def test_load_rejects_truncated_file(tmp_path, snap):
    path = snap.save(tmp_path / "mid.snap")
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(SnapshotError, match="digest mismatch"):
        Snapshot.load(path)


def test_load_rejects_newer_format(tmp_path, snap):
    future = Snapshot({**snap.meta, "format": FORMAT_VERSION + 1}, snap.blob)
    path = future.save(tmp_path / "future.snap")
    with pytest.raises(SnapshotError, match="newer"):
        Snapshot.load(path)


def test_restore_rejects_newer_format(snap):
    builder = build()
    scenario = builder.build()
    future = Snapshot({**snap.meta, "format": FORMAT_VERSION + 1}, snap.blob)
    with pytest.raises(SnapshotError, match="newer"):
        future.restore(scenario, builder)


def test_restore_rejects_mismatched_topology(snap):
    from repro.topo.figures import fig3_six_pads

    builder = fig3_six_pads(protocol="macaw", seed=0)
    builder.profile = builder.profile.but(trace=True)
    scenario = builder.build()
    with pytest.raises(SnapshotError, match="equivalent builder"):
        snap.restore(scenario, builder)


def test_file_layout_is_magic_header_blob(tmp_path, snap):
    path = snap.save(tmp_path / "mid.snap")
    raw = path.read_bytes()
    assert raw.startswith(MAGIC)
    (header_len,) = struct.unpack_from("<I", raw, len(MAGIC))
    blob = raw[len(MAGIC) + 4 + header_len:]
    assert blob == snap.blob
