"""Experiment registry and driver plumbing."""

import gc
import weakref

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import all_experiments, experiment_ids, get_experiment
from repro.topo.builder import ScenarioBuilder


def test_every_paper_table_is_registered():
    ids = experiment_ids()
    for n in range(1, 12):
        assert f"table{n}" in ids
    assert "fig1" in ids
    assert "fig8" in ids


def test_ablations_registered():
    ids = experiment_ids()
    assert "ablation-mild-factor" in ids
    assert "ablation-rts-defer" in ids
    assert "ablation-copying" in ids
    assert "ablation-multicast" in ids
    assert "ablation-failure-detection" in ids


def test_get_experiment_unknown():
    with pytest.raises(KeyError):
        get_experiment("table99")


def test_all_experiments_instantiates_everything():
    experiments = all_experiments()
    assert len(experiments) == len(experiment_ids())
    for exp in experiments:
        assert exp.spec.exp_id
        assert exp.spec.title
        assert exp.default_duration > exp.default_warmup


def test_specs_reference_figures():
    assert get_experiment("table5").spec.figure == "fig5"
    assert get_experiment("table10").spec.figure == "fig10"


def test_run_validates_warmup():
    exp = get_experiment("table9")
    with pytest.raises(ValueError):
        exp.run(duration=10.0, warmup=20.0)


@pytest.mark.parametrize("duration, warmup, match", [
    (60.0, -20.0, "warmup must be >= 0"),
    (float("nan"), 10.0, "duration must be a finite"),
    (float("inf"), 10.0, "duration must be a finite"),
    (60.0, float("nan"), "warmup must be a finite"),
], ids=["negative-warmup", "nan-duration", "inf-duration", "nan-warmup"])
def test_horizon_rejects_non_finite_values_and_negative_warmup(
    duration, warmup, match
):
    with pytest.raises(ValueError, match=match):
        get_experiment("table9").horizon(duration, warmup)


def test_result_render_and_passed():
    result = ExperimentResult(
        spec=get_experiment("table9").spec,
        table=__import__("repro.analysis.tables", fromlist=["ComparisonTable"]).ComparisonTable("t"),
        checks={"a": True, "b": False},
    )
    assert not result.passed
    rendered = result.render()
    assert "[PASS] a" in rendered
    assert "[FAIL] b" in rendered


@pytest.mark.parametrize("exp_id", experiment_ids())
def test_driver_frees_each_scenario_before_building_the_next(exp_id, monkeypatch):
    # A driver that keeps its previous variant's scenario bound while it
    # builds and runs the next one holds that run's whole trace (its
    # simulator owns it): ~11 MB for Table 2's BEB variant at 30 s.
    simulators, stale = [], []
    build = ScenarioBuilder.build

    def tracked(self):
        gc.collect()
        stale.extend(ref for ref in simulators if ref() is not None)
        scenario = build(self)
        simulators.append(weakref.ref(scenario.sim))
        return scenario

    monkeypatch.setattr(ScenarioBuilder, "build", tracked)
    # Table 8 measures from t=120; the polling ablation's newcomer from
    # duration/3 + 5 s.
    duration = {"table8": 120.5, "ablation-polling": 8.0}.get(exp_id, 3.0)
    get_experiment(exp_id).run(seed=1, duration=duration, warmup=1.0)
    assert simulators
    assert not stale
