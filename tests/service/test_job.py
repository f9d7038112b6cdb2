"""Job-spec identity, normalization, serialization, lookup."""

import pytest

from repro.core.config import RunProfile
from repro.service.job import DEFAULT_JOB_DIR, Job, JobSpec, find_job
from repro.service.policy import AdaptiveSeeds, FixedSeeds


def _spec(**changes):
    base = dict(
        experiments=("table2", "table9"),
        policy=FixedSeeds(seeds=(0, 1)),
        duration=5.0,
        warmup=1.0,
    )
    base.update(changes)
    return JobSpec(**base)


def test_spec_validates_experiments():
    with pytest.raises(ValueError):
        _spec(experiments=())
    with pytest.raises(ValueError):
        _spec(experiments=("table2", "table2"))
    with pytest.raises(KeyError):
        _spec(experiments=("table99",))


def test_spec_validates_bounds_and_types():
    with pytest.raises(ValueError):
        _spec(duration=5.0, warmup=5.0)
    with pytest.raises(TypeError):
        _spec(policy=[0, 1])
    with pytest.raises(TypeError):
        _spec(profile={"trace": True})


def test_spec_checks_every_experiments_horizon():
    # Table 8 measures from t=120 s whatever the warm-up says.
    with pytest.raises(ValueError, match="t=120 s"):
        _spec(experiments=("table9", "table8"), duration=60.0, warmup=None)


def test_spec_digest_stable_and_content_sensitive():
    assert _spec().digest() == _spec().digest()
    assert _spec().job_id == _spec().digest()[:12]
    assert _spec().digest() != _spec(duration=6.0).digest()
    assert _spec().digest() != _spec(
        policy=FixedSeeds(seeds=(0, 1, 2))
    ).digest()
    assert _spec(profile=RunProfile(queue="heap")).digest() != _spec(
        profile=RunProfile(queue="wheel")
    ).digest()


def test_spec_round_trips_through_dict():
    spec = _spec(
        policy=AdaptiveSeeds(epsilon=2.0, metric="variant:MACAW",
                             min_seeds=4, max_seeds=8),
        profile=RunProfile(trace=True, queue="wheel", sanitize=True),
    )
    clone = JobSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.digest() == spec.digest()


def test_job_layout_and_spec_file(tmp_path):
    spec = _spec()
    job = Job(spec=spec, directory=tmp_path / spec.job_id)
    job.write_spec()
    assert job.spec_path.exists()
    assert job.journal_path.name == "journal.jsonl"
    loaded = Job.load(job.directory)
    assert loaded.spec == spec


def test_find_job_by_prefix_path_and_ambiguity(tmp_path):
    spec_a = _spec()
    spec_b = _spec(duration=6.0)
    for spec in (spec_a, spec_b):
        Job(spec=spec, directory=tmp_path / spec.job_id).write_spec()
    assert find_job(spec_a.job_id[:6], tmp_path).spec == spec_a
    assert find_job(str(tmp_path / spec_b.job_id), tmp_path).spec == spec_b
    with pytest.raises(FileNotFoundError):
        find_job("ffffffffffff", tmp_path)
    with pytest.raises(ValueError, match="ambiguous"):
        find_job("", tmp_path)


def test_default_job_dir_is_dotfile():
    assert DEFAULT_JOB_DIR.startswith(".")
