"""RunProfile: normalization, digests, ambient scope, the one spelling."""

import pytest

from repro.core.config import RunProfile, WarmStart, active_profile, ambient_profile
from repro.fault import FaultSchedule, LinkFlap
from repro.obs.runtime import MetricsConfig
from repro.runner import Cell
from repro.service import run_cells
from repro.topo.builder import ScenarioBuilder


# ---------------------------------------------------------- normalization
def test_defaults_match_the_paper(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    profile = RunProfile()
    assert profile.bitrate_bps == 256_000.0
    assert profile.queue_capacity == 64
    assert profile.timing is None and profile.trace is False
    assert profile.sanitize is False and profile.metrics is None
    assert profile.faults is None


def test_validation_rejects_bad_knobs():
    with pytest.raises(ValueError):
        RunProfile(bitrate_bps=0.0)
    with pytest.raises(ValueError):
        RunProfile(queue_capacity=0)
    with pytest.raises(TypeError):
        RunProfile(metrics="often")
    with pytest.raises(TypeError):
        RunProfile(faults="chaos")


def test_metrics_sugar_normalizes_to_config():
    assert RunProfile(metrics=True).metrics == MetricsConfig()
    assert RunProfile(metrics=2).metrics == MetricsConfig(interval=2.0)
    assert RunProfile(metrics=False).metrics is None
    assert RunProfile(metrics=None).metrics is None
    assert RunProfile(metrics=False).digest() == RunProfile().digest()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_non_finite_or_nonpositive_times_are_rejected(bad):
    # NaN and inf pass a "<= 0" check: a sample or branch point at
    # either is never reached, and a NaN bitrate fails deep in the build.
    with pytest.raises(ValueError):
        MetricsConfig(interval=bad)
    with pytest.raises(ValueError):
        RunProfile(metrics=bad)
    with pytest.raises(ValueError):
        WarmStart(at=bad, store="unused")
    with pytest.raises(ValueError):
        RunProfile(bitrate_bps=bad)


def test_grid_kwargs_normalize_to_sorted_items():
    one = RunProfile(grid_kwargs={"range_m": 10.0, "alpha": 2.0})
    two = RunProfile(grid_kwargs={"alpha": 2.0, "range_m": 10.0})
    assert one == two
    assert one.grid_dict() == {"alpha": 2.0, "range_m": 10.0}


def test_empty_fault_schedule_normalizes_to_none():
    assert RunProfile(faults=FaultSchedule.empty()).faults is None


def test_but_returns_modified_copy():
    base = RunProfile()
    traced = base.but(trace=True)
    assert traced.trace and not base.trace


# ----------------------------------------------------------------- digest
def test_digest_is_stable_and_knob_sensitive():
    assert RunProfile().digest() == RunProfile().digest()
    assert RunProfile().digest() != RunProfile(trace=True).digest()
    assert RunProfile().digest() != RunProfile(queue_capacity=8).digest()


def _pinned_profiles():
    """Profiles whose digests key existing caches and job ids.

    ``queue`` and ``sanitize`` are explicit so ``REPRO_QUEUE`` and
    ``REPRO_SANITIZE`` cannot change what is pinned.
    """
    from repro.fault.presets import get_preset
    from repro.mac.timing import MacTiming

    return [
        (RunProfile(queue="heap", sanitize=False),
         "9b5272080ab51dc41465b7339817d722d41ff7b258b442babd810c066a321ca4"),
        (RunProfile(queue="heap", sanitize=True, trace=True, metrics=1.0,
                    faults=get_preset("churn-light")),
         "887d8c9af08b9c09c8669feb12369e7d98653d13a5dff070eb4411a598e6f814"),
        (RunProfile(queue="wheel:0.01", sanitize=False,
                    timing=MacTiming(margin_slots=2.0),
                    grid_kwargs={"capture_db": 6.0,
                                 "rx_threshold_distance_ft": 12.0},
                    warm_start=WarmStart(at=40.0, store="snaps",
                                         digest="0" * 16)),
         "e8b27772efc2e20bfd4f0f3bcde9a392859fe2e32f2fb63d2c655942e2149dd6"),
    ]


def test_digest_bytes_are_pinned():
    for profile, digest in _pinned_profiles():
        assert profile.digest() == digest, profile
    # The store path is not digested: where a snapshot lives does not
    # change what restoring it produces.
    moved = _pinned_profiles()[2][0]
    moved = moved.but(warm_start=WarmStart(at=40.0, store="elsewhere",
                                           digest="0" * 16))
    assert moved.digest() == _pinned_profiles()[2][1]


def test_dict_round_trip():
    for profile, _ in _pinned_profiles():
        clone = RunProfile.from_dict(profile.to_dict())
        assert clone == profile
        assert clone.to_dict() == profile.to_dict()


def test_empty_schedule_digest_equals_no_schedule():
    assert RunProfile(faults=FaultSchedule.empty()).digest() == RunProfile().digest()
    flap = FaultSchedule((LinkFlap("A", "B", 1.0, 2.0),))
    assert RunProfile(faults=flap).digest() != RunProfile().digest()


# ------------------------------------------------------------ queue backend
def test_queue_normalizes_and_distinguishes_digests(monkeypatch):
    monkeypatch.delenv("REPRO_QUEUE", raising=False)
    assert RunProfile().queue == "heap"
    assert RunProfile(queue="wheel").queue == "wheel"
    # Results are backend-independent, but perf runs must not share
    # cache entries: the digest names the backend.
    assert RunProfile(queue="wheel").digest() != RunProfile().digest()
    assert RunProfile(queue="wheel:0.002").digest() != RunProfile(queue="wheel").digest()
    assert RunProfile(queue="heap").digest() == RunProfile().digest()


def test_queue_env_var_sets_the_ambient_backend(monkeypatch):
    monkeypatch.setenv("REPRO_QUEUE", "wheel")
    assert RunProfile().queue == "wheel"
    assert RunProfile(queue="heap").queue == "heap"  # explicit wins


def test_queue_validation_is_eager(monkeypatch):
    monkeypatch.delenv("REPRO_QUEUE", raising=False)
    with pytest.raises(ValueError):
        RunProfile(queue="skiplist")


# ---------------------------------------------------------- ambient scope
def test_active_profile_scopes_the_ambient_profile():
    assert ambient_profile() is None
    profile = RunProfile(trace=True)
    with active_profile(profile) as current:
        assert current is profile
        assert ambient_profile() is profile
        assert RunProfile.current() is profile
    assert ambient_profile() is None
    assert RunProfile.current() == RunProfile()


def test_active_profile_rejects_non_profiles():
    with pytest.raises(TypeError):
        with active_profile({"trace": True}):
            pass  # pragma: no cover - never reached


def test_builder_adopts_the_ambient_profile():
    profile = RunProfile(queue_capacity=4)
    with active_profile(profile):
        builder = ScenarioBuilder(seed=1)
    assert builder.profile is profile
    # An explicit profile beats the ambient one.
    with active_profile(profile):
        explicit = ScenarioBuilder(seed=1, profile=RunProfile())
    assert explicit.profile == RunProfile()


# ------------------------------------------------------ the one spelling
def test_pre_profile_kwargs_are_type_errors():
    with pytest.raises(TypeError):
        ScenarioBuilder(seed=1, trace=True)
    with pytest.raises(TypeError):
        run_cells([Cell("table9", seed=0, duration=1.0, warmup=0.5)],
                  metrics_interval=1.0)
    with pytest.raises(TypeError):
        run_cells([Cell("table9", seed=0, duration=1.0, warmup=0.5)],
                  warm_start=None)


def test_unknown_builder_kwarg_is_a_type_error():
    with pytest.raises(TypeError):
        ScenarioBuilder(seed=1, chaos_level=11)
