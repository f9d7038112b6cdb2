"""ExecMode: validation, labels, profile application, matrices."""

import pytest

from repro.core.config import RunProfile
from repro.verify.diff.modes import ExecMode, default_matrix, full_matrix


def test_default_matrix_covers_every_axis_once():
    labels = [mode.label for mode in default_matrix()]
    assert labels == ["heap", "wheel", "heap+jobs2", "heap+metrics"]


def test_default_matrix_respects_queue_order():
    labels = [mode.label for mode in default_matrix(("wheel", "heap"))]
    assert labels[0] == "wheel"
    assert "heap" in labels
    assert labels[2:] == ["wheel+jobs2", "wheel+metrics"]


def test_full_matrix_is_the_cross_product():
    matrix = full_matrix(("heap", "wheel"))
    assert len(matrix) == 8
    assert len({mode.label for mode in matrix}) == 8
    assert ExecMode() in matrix
    assert ExecMode(queue="wheel", jobs=2, metrics=True) in matrix


def test_mode_validates_eagerly():
    with pytest.raises(ValueError):
        ExecMode(queue="bogus")
    with pytest.raises(ValueError):
        ExecMode(jobs=0)


def test_mode_apply_sets_queue_and_metrics_knobs():
    profile = RunProfile()
    applied = ExecMode(queue="wheel", metrics=True).apply(profile)
    assert applied.queue == "wheel"
    assert applied.metrics  # normalized to a MetricsConfig
    plain = ExecMode().apply(profile)
    assert plain.queue == "heap"
    assert not plain.metrics


def test_mode_dict_round_trip():
    mode = ExecMode(queue="wheel", jobs=2, metrics=True)
    assert ExecMode.from_dict(mode.to_dict()) == mode
    assert ExecMode.from_dict({}) == ExecMode()
    # A repro JSON may carry axes this build no longer has.
    assert ExecMode.from_dict({**mode.to_dict(), "snapshot": True}) == mode
