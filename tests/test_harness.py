from dataclasses import replace
from fractions import Fraction

import pytest

from dynbin import harness, oracles
from dynbin.core import Instance, Item
from dynbin.engine import simulate
from dynbin.oracles import opt_total
from dynbin.algorithms import DelayPolicy, MultiClassPolicy, SingleClassPolicy
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


def test_process_pool_rows_match_serial_run():
    cfg = ExperimentConfig(
        algorithm="alg2",
        generator=dict(UNIFORM),
        alpha="1/4",
        trials=4,
        base_seed=5,
        checks=applicable_checks("alg2"),
    )
    serial = cmd_run(cfg)
    pooled = cmd_run(replace(cfg, jobs=2))
    assert pooled["trials"] == serial["trials"]
    assert pooled["aggregates"] == serial["aggregates"]
    assert pooled["config"]["jobs"] == 2


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
    bounded = ["packing", "bad_bins", "junk_load", "per_time", "migration_budget"]
    assert applicable_checks("firstfit") == ["packing"]
    assert applicable_checks("alg1") == bounded
    assert applicable_checks("alg2") == bounded
    assert applicable_checks("sizecost") == ["packing", "bad_bins", "per_time", "size_budget"]
    assert applicable_checks("delay") == ["packing", "delay_schedule", "decomposition"]


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
        check_per_time(opt_total(instance, 24, 2.0), result, Fraction(9, 10), lambda t: 0)


def test_migration_budget_counts_alg1_class_against_all_items():
    # alg1 records its migrations under the one class key "class"; the
    # budget is 4*alpha/(1-2*alpha) = 2 migrations per item of the instance
    instance, _ = build_instance(UNIFORM, 1)
    policy = SingleClassPolicy(Fraction(1, 4), Fraction(1, 2))
    result = simulate(instance, policy)
    assert result.ledger.per_class() == {"class": 4}
    check_migration_budget(instance, result, Fraction(1, 4))


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


@pytest.mark.parametrize(
    "checks, compute_opt, sweeps",
    [
        (["packing", "per_time"], True, 1),
        (["packing", "per_time"], False, 1),
        (["packing"], True, 1),
        (["packing"], False, 0),
    ],
)
def test_checked_trial_sweeps_the_instance_once(monkeypatch, checks, compute_opt, sweeps):
    # per_time and the row's OPT fields read one OptReport
    calls = {"opt_total": 0, "snapshots": 0}

    def counting(name):
        original = getattr(oracles, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(oracles, name, counted)

    counting("opt_total")
    counting("snapshots")
    cfg = ExperimentConfig(
        algorithm="alg2",
        generator=dict(UNIFORM),
        alpha="1/4",
        checks=checks,
        compute_opt=compute_opt,
    )
    row = run_trial(cfg, 3)
    assert calls == {"opt_total": sweeps, "snapshots": sweeps}
    assert (row["max_pertime_ratio"] != "") == ("per_time" in checks)
    assert (row["opt_total"] != "") == compute_opt


@pytest.mark.parametrize("seed", range(3))
def test_run_trial_certifies_large_snapshots_by_their_lower_bound(seed):
    # about 15 live items, with intervals past the exact oracle's 24 items
    # where FFD misses L1; per_time used to raise SnapshotTooLarge there
    generator = dict(UNIFORM, n=2000, size_grid=16, arrival_window=200.0)
    cfg = ExperimentConfig(
        algorithm="alg2",
        generator=generator,
        alpha="1/4",
        checks=applicable_checks("alg2"),
    )
    row = run_trial(cfg, seed)
    assert row["opt_exact"] is False
    assert row["max_pertime_ratio"] >= 1.0
    assert row["opt_lb"] <= row["opt_total"] <= row["alg_cost"]
