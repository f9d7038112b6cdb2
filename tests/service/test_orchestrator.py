"""Orchestrator end-to-end: resume byte-equality, retry, adaptive stops.

Every test uses the fast fake experiments from ``conftest`` (tiny real
scenarios, forked into workers), a throwaway job dir, and a throwaway
result cache — nothing touches ``.macaw_jobs`` / ``.macaw_cache``.
"""

import pytest

from repro.runner import ResultCache
from repro.service import (
    AdaptiveSeeds,
    CellFailure,
    FixedSeeds,
    JobSpec,
    JournalError,
    WorkerDeath,
    ci_half_width,
    run_job,
)

DUR, WARM = 2.0, 0.5


def _spec(exp="svc-fast", policy=None, **changes):
    base = dict(
        experiments=(exp,),
        policy=policy or FixedSeeds(seeds=(0, 1)),
        duration=DUR,
        warmup=WARM,
    )
    base.update(changes)
    return JobSpec(**base)


def _run(spec, tmp_path, tag="a", **kwargs):
    kwargs.setdefault("cache", ResultCache(str(tmp_path / f"cache-{tag}")))
    return run_job(spec, job_dir=tmp_path / f"jobs-{tag}", **kwargs)


def test_fixed_job_completes(fake_experiments, tmp_path):
    job = _run(_spec(), tmp_path)
    assert job.status == "complete"
    assert job.executed == 2 and job.replayed == 0
    assert [o.cell.seed for o in job.outcomes] == [0, 1]
    assert all(o.digest for o in job.outcomes)
    assert job.stops["svc-fast"]["n"] == 2
    records = job.journal().load()
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "job" and kinds[-1] == "complete"
    assert kinds.count("cell") == 2
    assert records[-1]["digest_set"] == job.digest_set()


def test_rerun_replays_from_journal(fake_experiments, tmp_path):
    spec = _spec()
    cache = ResultCache(str(tmp_path / "cache"))
    first = run_job(spec, job_dir=tmp_path / "jobs", cache=cache)
    again = run_job(spec, job_dir=tmp_path / "jobs", cache=cache)
    assert again.executed == 0 and again.replayed == 2
    assert again.status == "complete"
    assert again.digest_set() == first.digest_set()
    # Replays append nothing: the journal still ends at the same record.
    assert len(again.journal().load()) == len(first.journal().load())


def test_cache_hits_from_other_jobs_are_reused(fake_experiments, tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    first = run_job(_spec(), job_dir=tmp_path / "jobs-a", cache=cache)
    second = run_job(_spec(), job_dir=tmp_path / "jobs-b", cache=cache)
    assert all(o.cached for o in second.outcomes)
    assert second.digest_set() == first.digest_set()


@pytest.mark.parametrize("queue", ["heap", "wheel"])
@pytest.mark.parametrize("jobs", [1, 4])
def test_interrupt_resume_digest_set_byte_equal(
    fake_experiments, tmp_path, queue, jobs
):
    from repro.core.config import RunProfile

    spec = _spec(policy=FixedSeeds(seeds=(0, 1, 2, 3)),
                 profile=RunProfile(queue=queue))
    reference = _run(spec, tmp_path, tag="ref", jobs=jobs)
    assert reference.status == "complete"

    cache = ResultCache(str(tmp_path / "cache-int"))
    partial = run_job(spec, jobs=jobs, job_dir=tmp_path / "jobs-int",
                      cache=cache, stop_after=2)
    if jobs == 1:
        # Inline execution halts deterministically: 2 cells journaled.
        assert partial.status == "interrupted"
        assert partial.executed == 2
    resumed = run_job(spec, jobs=jobs, job_dir=tmp_path / "jobs-int",
                      cache=cache)
    assert resumed.status == "complete"
    assert len(resumed.outcomes) == 4
    assert resumed.digest_set() == reference.digest_set()
    assert sorted(o.digest for o in resumed.outcomes) == sorted(
        o.digest for o in reference.outcomes
    )


def test_resume_after_cache_wipe_reexecutes(fake_experiments, tmp_path):
    spec = _spec(policy=FixedSeeds(seeds=(0, 1, 2)))
    cache = ResultCache(str(tmp_path / "cache"))
    partial = run_job(spec, job_dir=tmp_path / "jobs", cache=cache,
                      stop_after=2)
    assert partial.status == "interrupted"
    reference = _run(spec, tmp_path, tag="ref")
    # The journal names the finished cells, but the cache that held their
    # full results is gone: resume re-executes and stays byte-identical.
    resumed = run_job(spec, job_dir=tmp_path / "jobs",
                      cache=ResultCache(str(tmp_path / "c2")))
    assert resumed.status == "complete"
    assert resumed.digest_set() == reference.digest_set()


def test_worker_death_retried(fake_experiments, tmp_path):
    spec = _spec(exp="svc-crash-once")
    job = _run(spec, tmp_path, jobs=2, backoff_s=0.01)
    assert job.status == "complete"
    assert job.retries == 2  # one death per cell, both recovered
    cells = [r for r in job.journal().load() if r["kind"] == "cell"]
    assert sorted(r["attempts"] for r in cells) == [2, 2]
    assert all(o.digest for o in job.outcomes)


def test_worker_death_exhausts_retry_budget(fake_experiments, tmp_path):
    spec = _spec(exp="svc-crash-always")
    with pytest.raises(WorkerDeath, match="retry budget"):
        _run(spec, tmp_path, jobs=2, retries=1, backoff_s=0.01)


def test_in_cell_exception_not_retried(fake_experiments, tmp_path):
    spec = _spec(exp="svc-raise")
    with pytest.raises(CellFailure, match="deliberate in-cell failure"):
        _run(spec, tmp_path, jobs=2, retries=5, backoff_s=0.01)


@pytest.mark.parametrize("bad", [dict(retries=-1), dict(backoff_s=float("nan")),
                                 dict(backoff_s=-1.0)])
def test_bad_retry_settings_leave_no_job(fake_experiments, tmp_path, bad):
    with pytest.raises(ValueError):
        _run(_spec(), tmp_path, jobs=2, **bad)
    assert not (tmp_path / "jobs-a").exists()


def test_adaptive_stops_at_min_when_epsilon_wide(fake_experiments, tmp_path):
    spec = _spec(policy=AdaptiveSeeds(epsilon=1e6, min_seeds=3, max_seeds=8))
    job = _run(spec, tmp_path)
    stop = job.stops["svc-fast"]
    assert stop["n"] == 3 and stop["reason"] == "ci"
    assert len(job.outcomes) == 3


def test_adaptive_runs_to_cap_when_epsilon_tiny(fake_experiments, tmp_path):
    spec = _spec(policy=AdaptiveSeeds(epsilon=1e-9, min_seeds=3, max_seeds=5))
    job = _run(spec, tmp_path)
    stop = job.stops["svc-fast"]
    assert stop["n"] == 5 and stop["reason"] == "cap"
    stops = [r for r in job.journal().load() if r["kind"] == "stop"]
    assert stops and stops[-1]["reason"] == "cap"


def test_adaptive_stop_point_independent_of_jobs(fake_experiments, tmp_path):
    # Pick an epsilon that genuinely requires growth past min_seeds when
    # the metric series allows it: probe the first 5 metrics serially,
    # then target a half-width between n=3 and n=5.
    probe = _run(_spec(policy=FixedSeeds(seeds=(0, 1, 2, 3, 4))),
                 tmp_path, tag="probe")
    from repro.service.policy import cell_metric

    metrics = [cell_metric(o.result.table, "total") for o in probe.outcomes]
    hw3, hw5 = ci_half_width(metrics[:3]), ci_half_width(metrics[:5])
    epsilon = (hw3 + hw5) / 2 if hw5 < hw3 else hw3 * 2
    policy = AdaptiveSeeds(epsilon=epsilon, min_seeds=3, max_seeds=8)

    serial = _run(_spec(policy=policy), tmp_path, tag="s", jobs=1)
    fanned = _run(_spec(policy=policy), tmp_path, tag="p", jobs=4)
    assert serial.stops == fanned.stops
    assert serial.digest_set() == fanned.digest_set()


def test_resume_rejects_tampered_journal(fake_experiments, tmp_path):
    import json

    spec = _spec()
    job = _run(spec, tmp_path)
    lines = job.journal_path.read_text().splitlines()
    record = json.loads(lines[1])
    record["digest"] = "0" * 64
    lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    job.journal_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError):
        run_job(spec, job_dir=tmp_path / "jobs-a",
                cache=ResultCache(str(tmp_path / "cache-a")))


def test_foreign_journal_rejected(fake_experiments, tmp_path):
    spec_a = _spec()
    spec_b = _spec(policy=FixedSeeds(seeds=(5, 6)))
    job_a = _run(spec_a, tmp_path)
    # Graft job A's journal under job B's identity.
    directory = tmp_path / "jobs-a" / spec_b.job_id
    directory.mkdir(parents=True)
    (directory / "journal.jsonl").write_text(
        job_a.journal_path.read_text()
    )
    with pytest.raises(JournalError, match="job"):
        run_job(spec_b, job_dir=tmp_path / "jobs-a",
                cache=ResultCache(str(tmp_path / "cache-a")))


def test_no_digest_mode_completes(fake_experiments, tmp_path):
    job = _run(_spec(collect_digests=False), tmp_path)
    assert job.status == "complete"
    assert all(o.digest is None for o in job.outcomes)


def test_on_event_sees_every_journal_record(fake_experiments, tmp_path):
    events = []
    job = _run(_spec(), tmp_path,
               on_event=lambda kind, record: events.append((kind, record)))
    # The journal is the one record: each event is a journaled record,
    # chain link included, and nothing else is written beside it.
    assert events == [(r["kind"], r) for r in job.journal().load()]
    assert [kind for kind, _ in events] == [
        "job", "cell", "cell", "stop", "complete"]
    assert sorted(p.name for p in job.directory.iterdir()) == [
        "journal.jsonl", "spec.json"]
