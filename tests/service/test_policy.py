"""Seed-policy math: CI half-widths, sequential stopping, round-trips."""

import pytest

from repro.service.policy import (
    AdaptiveSeeds,
    FixedSeeds,
    ci_half_width,
    policy_from_dict,
    t_critical,
)


def test_t_critical_small_df_exceeds_z():
    assert t_critical(2, 0.95) == pytest.approx(4.303, abs=0.01)
    assert t_critical(1000, 0.95) == pytest.approx(1.96, abs=0.01)
    assert t_critical(2, 0.99) > t_critical(2, 0.95)


def test_t_critical_rejects_unknown_confidence():
    with pytest.raises(ValueError):
        t_critical(5, 0.90)


def test_ci_half_width_needs_two_samples():
    assert ci_half_width([3.0]) == float("inf")
    assert ci_half_width([]) == float("inf")


def test_ci_half_width_zero_variance():
    assert ci_half_width([5.0, 5.0, 5.0]) == 0.0


def test_ci_half_width_known_value():
    # n=4, mean 2.5, sample sd sqrt(5/3); t(3, .95)=3.182
    values = [1.0, 2.0, 3.0, 4.0]
    sd = (5.0 / 3.0) ** 0.5
    expected = 3.182 * sd / 2.0
    assert ci_half_width(values) == pytest.approx(expected, rel=1e-3)


def test_fixed_seeds_allocates_once():
    policy = FixedSeeds(seeds=(4, 5, 6))
    assert policy.initial_seeds() == [4, 5, 6]
    assert policy.next_seeds([1.0, 2.0, 3.0]) == []


def test_fixed_seeds_validation():
    with pytest.raises(ValueError):
        FixedSeeds(seeds=())
    with pytest.raises(ValueError):
        FixedSeeds(seeds=(1, 1))


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_adaptive_rejects_bad_epsilon(bad):
    with pytest.raises(ValueError, match="epsilon"):
        AdaptiveSeeds(epsilon=bad)


def test_adaptive_stops_when_ci_tight():
    policy = AdaptiveSeeds(epsilon=100.0, min_seeds=3, max_seeds=10)
    assert policy.initial_seeds() == [0, 1, 2]
    # Wide epsilon: three near-identical samples satisfy it immediately.
    assert policy.next_seeds([50.0, 50.1, 49.9]) == []
    assert policy.stop_reason([50.0, 50.1, 49.9]) == "ci"


def test_adaptive_grows_until_cap():
    policy = AdaptiveSeeds(epsilon=1e-9, min_seeds=3, max_seeds=5, step=1)
    metrics = [10.0, 20.0, 30.0]
    assert policy.next_seeds(metrics) == [3]
    metrics.append(40.0)
    assert policy.next_seeds(metrics) == [4]
    metrics.append(50.0)
    assert policy.next_seeds(metrics) == []
    assert policy.stop_reason(metrics) == "cap"


def test_adaptive_respects_base_seed_and_step():
    policy = AdaptiveSeeds(epsilon=1e-9, min_seeds=2, max_seeds=6, step=2,
                           base_seed=10)
    assert policy.initial_seeds() == [10, 11]
    assert policy.next_seeds([1.0, 100.0]) == [12, 13]


def test_adaptive_decision_is_pure_function_of_series():
    policy = AdaptiveSeeds(epsilon=5.0, min_seeds=3, max_seeds=12)
    series = [40.0, 55.0, 45.0, 50.0, 48.0]
    assert policy.next_seeds(list(series)) == policy.next_seeds(list(series))


def test_policy_round_trips():
    for policy in (
        FixedSeeds(seeds=(0, 2, 4)),
        AdaptiveSeeds(epsilon=1.5, metric="variant:MACAW", min_seeds=4,
                      max_seeds=16, step=2, base_seed=7, confidence=0.99),
    ):
        clone = policy_from_dict(policy.to_dict())
        assert clone == policy
