"""Cell grid expansion and resolution."""

import pickle

import pytest

from repro.experiments.registry import get_experiment
from repro.runner import Cell, expand_cells


def test_expand_cells_is_experiments_outermost():
    cells = expand_cells(["table3", "table9"], [0, 1])
    assert [(c.exp_id, c.seed) for c in cells] == [
        ("table3", 0), ("table3", 1), ("table9", 0), ("table9", 1),
    ]


def test_expand_cells_carries_bounds():
    (cell,) = expand_cells(["table9"], [5], duration=40.0, warmup=10.0)
    assert cell == Cell("table9", seed=5, duration=40.0, warmup=10.0)


def test_resolved_pins_experiment_defaults():
    exp = get_experiment("table9")
    cell = Cell("table9", seed=3).resolved()
    assert cell.duration == exp.default_duration
    assert cell.warmup == exp.default_warmup
    # Explicit values survive resolution untouched.
    pinned = Cell("table9", seed=3, duration=40.0, warmup=10.0)
    assert pinned.resolved() is pinned


def test_resolved_rejects_bounds_without_a_measurement_window():
    # Table 8 measures from t=120 s, so a 60 s run has nothing to measure.
    with pytest.raises(ValueError, match="t=120 s"):
        Cell("table8", seed=0, duration=60.0).resolved()
    with pytest.raises(ValueError, match="t=10 s"):
        Cell("table9", seed=0, duration=10.0, warmup=10.0).resolved()


def test_explicit_defaults_resolve_to_same_cell_as_implied():
    exp = get_experiment("table9")
    implied = Cell("table9", seed=0).resolved()
    explicit = Cell(
        "table9", seed=0,
        duration=exp.default_duration, warmup=exp.default_warmup,
    ).resolved()
    assert implied == explicit


def test_cells_are_picklable():
    cell = Cell("table9", seed=2, duration=40.0, warmup=10.0)
    assert pickle.loads(pickle.dumps(cell)) == cell
