"""A finished run leaves no cyclic garbage: the engine lets go of its
policy when the run ends and the oracle's branch and bound recurses
through a plain function, so reference counting frees everything a run
built as soon as the caller drops it. Each test runs with the cyclic
collector off and expects a collection afterwards to find nothing."""

import gc
from fractions import Fraction

import pytest

from dynbin import oracles
from dynbin.algorithms import make_policy
from dynbin.core import Instance, Item
from dynbin.engine import simulate
from dynbin.generators import gen_fig2
from dynbin.harness import ExperimentConfig, applicable_checks, run_trial

UNIFORM = {
    "family": "uniform",
    "n": 40,
    "size_grid": 16,
    "duration_range": [1.0, 2.0],
    "arrival_window": 20.0,
}

PARAMS = {
    "firstfit": {},
    "alg1": {"alpha": "1/4", "f": "1/2"},
    "alg2": {"alpha": "1/4"},
    "sizecost": {"alpha": "1/4"},
    "delay": {"delay_cost": 4.0},
}


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("name", PARAMS)
def test_simulate_leaves_no_cycles(collector_off, name):
    params = PARAMS[name]
    policy = make_policy(
        name,
        alpha=Fraction(params["alpha"]) if "alpha" in params else None,
        f=Fraction(params["f"]) if "f" in params else None,
        delay_cost=params.get("delay_cost"),
    )
    instance, adversary = gen_fig2(4, 10.0)
    result = simulate(
        instance, policy, delay_cost=params.get("delay_cost", 0.0), adversary=adversary
    )
    assert result.resolved_durations
    del result, policy
    assert gc.collect() == 0


@pytest.mark.parametrize("name", PARAMS)
def test_checked_trial_leaves_no_cycles(collector_off, name):
    config = ExperimentConfig(
        algorithm=name,
        generator=dict(UNIFORM),
        checks=applicable_checks(name),
        **PARAMS[name],
    )
    for seed in range(3):
        run_trial(config, seed)
    assert gc.collect() == 0


def test_branch_and_bound_leaves_no_cycles(collector_off):
    # three items of 6/10: L1 = 2 but FFD = 3, so only the search decides
    instance = Instance(items=tuple(Item(i, 0.0, 6, 1.0) for i in range(3)), scale=10)
    oracles._opt_cache.pop(((6, 6, 6), 10), None)
    report = oracles.opt_total(instance)
    (interval,) = report.intervals
    assert (interval.lower, interval.opt, interval.upper) == (2, 3, 3)
    assert interval.exact
    assert gc.collect() == 0
