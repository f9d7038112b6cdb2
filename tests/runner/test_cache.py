"""On-disk result cache: round-trips, key sensitivity, corruption safety."""

from repro.core.config import RunProfile
from repro.runner import Cell, ResultCache, profile_hash
from repro.service import run_cells


def _run_one(cache, collect=True):
    cells = [Cell("table9", seed=0, duration=30.0, warmup=5.0)]
    return run_cells(cells, jobs=1, cache=cache, collect_digests=collect)[0]


def _default_config(collect=True):
    """The config hash run_cells uses for a default profile."""
    return profile_hash(RunProfile(), collect_digests=collect)


def test_round_trip_hits_and_preserves_result(tmp_path):
    cache = ResultCache(tmp_path)
    fresh = _run_one(cache)
    assert not fresh.cached and cache.misses == 1 and cache.hits == 0

    again = _run_one(cache)
    assert again.cached and cache.hits == 1
    assert again.wall_s == 0.0
    assert again.digest == fresh.digest
    assert again.result.table.render() == fresh.result.table.render()
    assert again.result.checks == fresh.result.checks


def test_key_changes_with_every_cell_and_config_field(tmp_path):
    cache = ResultCache(tmp_path)
    base = Cell("table9", seed=0, duration=30.0, warmup=5.0)
    config = _default_config()
    reference = cache.key(base, config)

    variants = [
        Cell("table3", seed=0, duration=30.0, warmup=5.0),
        Cell("table9", seed=1, duration=30.0, warmup=5.0),
        Cell("table9", seed=0, duration=31.0, warmup=5.0),
        Cell("table9", seed=0, duration=30.0, warmup=6.0),
    ]
    keys = {cache.key(cell, config) for cell in variants}
    flipped = RunProfile(sanitize=not RunProfile().sanitize)
    keys.add(cache.key(base, profile_hash(flipped, collect_digests=True)))
    keys.add(cache.key(base, config, version="other-code-version"))
    assert reference not in keys
    assert len(keys) == 6


def test_profile_hash_separates_fault_and_metrics_sweeps():
    base = profile_hash(RunProfile(sanitize=False, metrics=False), True)
    from repro.fault import FaultSchedule, LinkFlap

    faulted = RunProfile(
        sanitize=False, metrics=False,
        faults=FaultSchedule((LinkFlap("A", "B", 1.0, 2.0),)),
    )
    variants = {
        profile_hash(RunProfile(sanitize=True, metrics=False), True),
        profile_hash(RunProfile(sanitize=False, metrics=2.0), True),
        profile_hash(RunProfile(sanitize=False, metrics=False), False),
        profile_hash(faulted, True),
    }
    assert base not in variants
    assert len(variants) == 4
    # An empty schedule normalizes away: same key space as no faults.
    empty = RunProfile(sanitize=False, metrics=False, faults=FaultSchedule())
    assert profile_hash(empty, True) == base


def test_stale_code_version_misses(tmp_path):
    cache = ResultCache(tmp_path)
    config = _default_config()
    fresh = _run_one(cache)
    cell = fresh.cell
    # Same cell under a different source-tree hash must not hit.
    assert cache.get(cell, config, version="pretend-old-tree") is None


def test_corrupt_entry_is_a_miss_not_an_error(tmp_path):
    cache = ResultCache(tmp_path)
    config = _default_config()
    fresh = _run_one(cache)
    path = cache._path(cache.key(fresh.cell, config))
    assert path.exists()
    path.write_bytes(b"not a pickle")
    assert cache.get(fresh.cell, config) is None
    # And the cache repairs itself on the next run.
    again = _run_one(cache)
    assert not again.cached
    assert _run_one(cache).cached


def test_startup_sweeps_only_stale_tmp_files(tmp_path):
    import os
    import time

    from repro.runner.cache import TMP_SWEEP_AGE_S

    stale = tmp_path / "orphaned-worker-write.tmp"
    stale.write_bytes(b"partial pickle from a killed worker")
    old = time.time() - TMP_SWEEP_AGE_S - 60.0
    os.utime(stale, (old, old))
    fresh_tmp = tmp_path / "in-flight-write.tmp"
    fresh_tmp.write_bytes(b"a concurrent worker mid-put")
    bystander = tmp_path / "unrelated.txt"
    bystander.write_text("not cache state")

    cache = ResultCache(tmp_path)
    assert not stale.exists()          # orphan reclaimed at startup
    assert fresh_tmp.exists()          # recent write never raced
    assert bystander.exists()          # only *.tmp is touched

    # Sweeping is hygiene, not invalidation: entries still round-trip,
    # and a lingering tmp file is never served as a hit.
    first = _run_one(cache)
    assert not first.cached
    assert _run_one(cache).cached


def test_missing_cache_dir_sweep_is_harmless(tmp_path):
    cache = ResultCache(tmp_path / "never-created")
    assert cache.hits == 0 and cache.misses == 0


def test_sweep_spares_live_writer_tmp_regardless_of_age(tmp_path):
    import os
    import time

    from repro.runner.cache import TMP_SWEEP_AGE_S

    # A slow write by a *live* process (ours), older than the age cutoff:
    # under the old age-only sweep this would be yanked mid-write.
    live = tmp_path / f"slow-write.{os.getpid()}.tmp"
    live.write_bytes(b"in-flight write by a live worker")
    old = time.time() - TMP_SWEEP_AGE_S - 60.0
    os.utime(live, (old, old))

    ResultCache(tmp_path)
    assert live.exists()


def test_sweep_reclaims_dead_writer_tmp_even_when_fresh(tmp_path):
    import multiprocessing
    import os

    proc = multiprocessing.get_context("spawn").Process(target=int)
    proc.start()
    proc.join()
    dead_pid = proc.pid
    assert dead_pid is not None

    dead = tmp_path / f"orphan.{dead_pid}.tmp"
    dead.write_bytes(b"stranded by a killed worker")
    ResultCache(tmp_path)
    assert not dead.exists()


def test_put_rewrites_when_sweep_races_the_rename(tmp_path, monkeypatch):
    import os

    import repro.runner.cache as cache_mod

    cache = ResultCache(tmp_path)
    fresh = _run_one(cache)

    # Interleaving: another process's sweeper unlinks our tmp after the
    # write but before the rename.  First os.replace sees no source.
    real_replace = os.replace
    raced = {"count": 0}

    def racing_replace(src, dst, **kwargs):
        if raced["count"] == 0:
            raced["count"] += 1
            os.unlink(src)
        return real_replace(src, dst, **kwargs)

    monkeypatch.setattr(cache_mod.os, "replace", racing_replace)
    cache.put(fresh, _default_config())
    assert raced["count"] == 1

    served = _run_one(cache)
    assert served.cached and served.digest == fresh.digest
