"""Multi-seed aggregation."""

import pytest

from repro.experiments.base import SeedSweepResult
from repro.experiments.registry import get_experiment


def _sweep(seeds):
    exp = get_experiment("table9")
    return SeedSweepResult(exp.spec, [
        exp.run(seed=s, duration=60.0, warmup=10.0) for s in seeds
    ])


def test_seed_sweep_aggregates_means_and_rates():
    sweep = _sweep([0, 1])
    assert len(sweep.results) == 2
    mean = sweep.mean_table()
    singles = [r.table.value("MACA (RTS-CTS-DATA)", "P-B") for r in sweep.results]
    assert mean.value("MACA (RTS-CTS-DATA)", "P-B") == pytest.approx(
        sum(singles) / 2
    )
    rates = sweep.check_pass_rates()
    assert set(rates) == set(sweep.results[0].checks)
    assert all(0.0 <= r <= 1.0 for r in rates.values())


def test_render_shows_percentages():
    out = _sweep([0]).render()
    assert "mean of 1 seeds" in out
    assert "%]" in out


def test_mean_table_preserves_paper_values():
    mean = _sweep([0, 1]).mean_table()
    assert mean.paper["MACA (RTS-CTS-DATA)"]["P-B"] == 53.04
