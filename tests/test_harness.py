from fractions import Fraction

import pytest

from dynbin import harness
from dynbin.core import Instance, Item
from dynbin.engine import simulate
from dynbin.algorithms import DelayPolicy, MultiClassPolicy
from dynbin.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    InvariantViolation,
    aggregate,
    applicable_checks,
    build_instance,
    check_delay_schedule,
    check_migration_budget,
    check_per_time,
    checked_run,
    cmd_run,
    cmd_verify,
    rows_to_csv,
    rows_to_markdown,
    run_trial,
)

UNIFORM = {
    "family": "uniform",
    "n": 20,
    "size_grid": 8,
    "duration_range": [1.0, 2.0],
    "arrival_window": 8.0,
}


def test_run_trial_row_fields():
    cfg = ExperimentConfig(
        algorithm="alg2",
        generator=dict(UNIFORM),
        alpha="1/4",
        checks=["packing", "bad_bins", "per_time", "migration_budget"],
    )
    row = run_trial(cfg, 3)
    assert set(CSV_COLUMNS) <= set(row)
    assert row["alg"] == "alg2"
    assert row["opt_exact"] is True
    assert row["ratio"] >= 1.0 - 1e-9
    assert row["phases"] >= 1


def test_cmd_run_aggregates():
    cfg = ExperimentConfig(
        algorithm="firstfit", generator=dict(UNIFORM), trials=5, base_seed=10
    )
    report = cmd_run(cfg)
    assert len(report["trials"]) == 5
    agg = report["aggregates"]["alg_cost"]
    assert agg["min"] <= agg["mean"] <= agg["max"]
    assert agg["n"] == 5


def test_config_roundtrip():
    cfg = ExperimentConfig(algorithm="alg1", generator=dict(UNIFORM), alpha="1/10", f="1/2")
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.alpha_fraction() == Fraction(1, 10)


def test_csv_and_markdown_render():
    cfg = ExperimentConfig(algorithm="firstfit", generator=dict(UNIFORM), trials=2)
    rows = cmd_run(cfg)["trials"]
    csv_text = rows_to_csv(rows)
    assert csv_text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(csv_text.splitlines()) == 3
    md = rows_to_markdown(rows)
    assert md.count("\n") == 4


def test_applicable_checks_cover_all_algorithms():
    for alg in ("firstfit", "alg1", "alg2", "sizecost", "delay"):
        assert "packing" in applicable_checks(alg)
    assert "decomposition" in applicable_checks("delay")
    assert "size_budget" in applicable_checks("sizecost")


def test_per_time_check_flags_violation():
    # four (5,3) pairs fill four bins; when the 5s depart FirstFit keeps
    # four fragmented bins while the optimum repacks into two
    items = tuple(
        Item(i, 0.0, 5 if i % 2 == 0 else 3, 1.0 if i % 2 == 0 else 3.0)
        for i in range(8)
    )
    instance = Instance(items=items, scale=8)
    from dynbin.algorithms import FirstFitPolicy

    result = simulate(instance, FirstFitPolicy())
    with pytest.raises(InvariantViolation):
        check_per_time(instance, result, Fraction(9, 10), lambda t: 0, 24, 2.0)


def test_migration_budget_accepts_compliant_run():
    items = tuple(Item(i, 0.0, 1, 1.0 if i < 7 else 5.0) for i in range(12))
    instance = Instance(items=items, scale=8)
    policy = MultiClassPolicy(Fraction(1, 4))
    result = simulate(instance, policy)
    check_migration_budget(instance, result, Fraction(1, 4))


def test_delay_schedule_check():
    one = Instance(items=(Item(0, 0.0, 1, 25.0),), scale=2)
    result = simulate(one, DelayPolicy(100.0), delay_cost=100.0)
    check_delay_schedule(one, result, 100.0)
    result.departures[0] += 1.0
    with pytest.raises(InvariantViolation):
        check_delay_schedule(one, result, 100.0)


def test_delay_trial_with_all_checks():
    cfg = ExperimentConfig(
        algorithm="delay",
        generator={"family": "delaylb", "c": 16},
        delay_cost=16.0,
        checks=["packing", "delay_schedule", "decomposition"],
        compute_opt=False,
    )
    row = run_trial(cfg, 1)
    assert row["alg_cost"] > 0


def test_aggregate_skips_blank_columns():
    rows = [{"alg_cost": 2.0, "ratio": ""}, {"alg_cost": 4.0, "ratio": ""}]
    agg = aggregate(rows)
    assert agg["alg_cost"]["mean"] == 3.0
    assert "ratio" not in agg


def test_checked_run_rejects_unknown_check():
    cfg = ExperimentConfig(algorithm="firstfit", generator=dict(UNIFORM), checks=["packng"])
    instance, _ = build_instance(UNIFORM, 0)
    with pytest.raises(ValueError, match="packng"):
        checked_run(cfg, instance)


@pytest.mark.parametrize(
    "alg, options, generator, runs",
    [
        ("alg2", {"alpha": "1/4"}, UNIFORM, 1),
        # the decomposition check simulates FirstFit on two sub-instances
        ("delay", {"delay_cost": 16.0}, dict(UNIFORM, duration_range=[1.0, 16.0]), 3),
    ],
)
def test_verify_simulates_once(monkeypatch, alg, options, generator, runs):
    calls = []
    original = harness.simulate
    monkeypatch.setattr(
        harness, "simulate", lambda *a, **kw: calls.append(a) or original(*a, **kw)
    )
    instance, adversary = build_instance(generator, 0)
    cfg = ExperimentConfig(algorithm=alg, generator=generator, **options)
    results = cmd_verify(cfg, instance, adversary)
    assert [check for check, ok, _ in results if ok] == applicable_checks(alg)
    assert len(calls) == runs
