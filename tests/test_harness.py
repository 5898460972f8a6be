import math
import random
import statistics
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from dynbin import core, engine, generators, harness, oracles
from dynbin.core import Instance, Item, validate as core_validate
from dynbin.engine import LedgerEntry, MigrationLedger, SimulationError, simulate
from dynbin.oracles import opt_total
from dynbin.algorithms import (
    DelayPolicy,
    FirstFitPolicy,
    MultiClassPolicy,
    SingleClassPolicy,
    decompose_delay_run,
)
from dynbin.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    InvariantViolation,
    aggregate,
    applicable_checks,
    build_instance,
    check_config,
    check_decomposition,
    check_delay_schedule,
    check_migration_budget,
    check_per_time,
    check_size_budget,
    checked_run,
    cmd_run,
    cmd_verify,
    rows_to_csv,
    rows_to_markdown,
    run_trial,
    sample_stdev,
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
    # 4 trials on 2 workers go out one to a task; 19 go out in chunks of 3,
    # the last one short, and the rows still come back in seed order
    for trials in (4, 19):
        cfg = ExperimentConfig(
            algorithm="alg2",
            generator=dict(UNIFORM),
            alpha="1/4",
            trials=trials,
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
        check_per_time(opt_total(instance), result, Fraction(9, 10), lambda t: 0)


def test_migration_budget_counts_alg1_class_against_all_items():
    # alg1 records its migrations under the one class key "class"; the
    # budget is 4*alpha/(1-2*alpha) = 2 migrations per item of the instance
    instance = build_instance(UNIFORM, 1)
    policy = SingleClassPolicy(Fraction(1, 4), Fraction(1, 2))
    result = simulate(instance, policy)
    assert result.ledger.per_class() == {"class": 4}
    check_migration_budget(instance, result, Fraction(1, 4))


@pytest.mark.parametrize("alpha", [Fraction(1, 4), Fraction(1, 10), Fraction(1, 5)])
@pytest.mark.parametrize("class_key, n_c", [("class", 10), ("class:1", 4)])
def test_migration_budget_is_exact_at_its_bound(alpha, class_key, n_c):
    # six class-0 and four class-1 items; a class may migrate
    # floor(4 alpha / (1 - 2 alpha) * n_c) times, and one more is a violation
    items = tuple(Item(i, 0.0, 8 if i < 6 else 4, 1.0) for i in range(10))
    instance = Instance(items=items, scale=8)
    allowed = math.floor(4 * alpha / (1 - 2 * alpha) * n_c)

    def run(count):
        ledger = MigrationLedger(8)
        for _ in range(count):
            ledger.entries.append(LedgerEntry(0.0, 6, 4, 0, 1, class_key, "drain"))
        return SimpleNamespace(ledger=ledger)

    check_migration_budget(instance, run(allowed), alpha)
    with pytest.raises(InvariantViolation, match="migration_budget"):
        check_migration_budget(instance, run(allowed + 1), alpha)


def test_size_budget_is_exact_at_its_bound():
    # alpha = 1/5 allows 1/3 of the total size: 51,845 of 155,535 thirds,
    # where a float sum and product land an ulp apart
    alpha = Fraction(1, 5)
    instance = Instance(items=tuple(Item(i, 0.0, 3, 1.0) for i in range(51845)), scale=3)

    def run(migrated):
        ledger = MigrationLedger(3)
        sizes = [3] * (migrated // 3) + ([migrated % 3] if migrated % 3 else [])
        ledger.entries.extend(LedgerEntry(0.0, 0, s, 0, 1, "shared", "drain") for s in sizes)
        return SimpleNamespace(ledger=ledger)

    check_size_budget(instance, run(51845), alpha)
    with pytest.raises(InvariantViolation, match="size_budget"):
        check_size_budget(instance, run(51846), alpha)


def test_migration_budget_accepts_compliant_run():
    items = tuple(Item(i, 0.0, 1, 1.0 if i < 7 else 5.0) for i in range(12))
    instance = Instance(items=items, scale=8)
    policy = MultiClassPolicy(Fraction(1, 4))
    result = simulate(instance, policy)
    check_migration_budget(instance, result, Fraction(1, 4))


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(3, 4)])
@pytest.mark.parametrize(
    "name, check",
    [("migration_budget", check_migration_budget), ("size_budget", check_size_budget)],
)
def test_a_budget_check_refuses_an_alpha_outside_its_range(name, check, alpha):
    # 1 / (1 - 2 alpha) is undefined at 1/2 and negative beyond: called
    # directly, through checked_run or through check_config, a budget
    # check refuses such an alpha with the same words
    instance = build_instance(UNIFORM, 1)
    result = simulate(instance, MultiClassPolicy(Fraction(1, 4)))
    problem = f"check {name} needs alpha in (0, 1/2), got {alpha}"
    with pytest.raises(ValueError) as direct:
        check(instance, result, alpha)
    # firstfit builds at any alpha, so only the check can refuse it
    config = ExperimentConfig(
        algorithm="firstfit", generator=UNIFORM, alpha=str(alpha), checks=[name]
    )
    with pytest.raises(ValueError) as through_run:
        checked_run(config, instance)
    with pytest.raises(ValueError) as through_config:
        check_config(config)
    assert str(direct.value) == str(through_run.value) == str(through_config.value) == problem


def test_delay_schedule_check():
    one = Instance(items=(Item(0, 0.0, 1, 25.0),), scale=2)
    result = simulate(one, DelayPolicy(100.0), delay_cost=100.0)
    check_delay_schedule(one, result, 100.0)
    result.departures[0] += 1.0
    with pytest.raises(InvariantViolation):
        check_delay_schedule(one, result, 100.0)


def test_delay_schedule_allows_any_count_when_d_over_sqrt_c_is_past_every_float():
    one = Instance(items=(Item(0, 0.0, 1, 1e300),), scale=2)
    result = simulate(one, FirstFitPolicy())
    check_delay_schedule(one, result, 5e-324)


def test_a_delay_run_that_may_migrate_past_the_bound_is_refused(monkeypatch):
    """At C = 4 an item of duration d counts floor(d / 2) migrations, a
    deferred one at max(mu, 1): a run at the bound starts, one past it is
    refused, and an invalid instance keeps its validate violation."""
    monkeypatch.setattr(harness, "MAX_DELAY_MIGRATIONS", 10)
    cfg = ExperimentConfig(
        algorithm="delay", generator=dict(UNIFORM), delay_cost=4.0, checks=["packing"]
    )
    at_bound = (Item(0, 0.0, 1, 8.0), Item(1, 0.0, 1, 13.0))  # 4 + 6
    assert checked_run(cfg, Instance(items=at_bound, scale=4)).violation is None
    past = Instance(items=(*at_bound, Item(2, 1.0, 1, 3.0)), scale=4)
    with pytest.raises(SimulationError) as info:
        checked_run(cfg, past)
    assert str(info.value) == (
        "a delay run at C = 4.0 may make 11 migrations, more than 1e+01;"
        " item 1 alone may make 6"
    )
    header = {"name": "longest-per-bin", "mu": 21.0, "long_count": 1}
    deferred = Instance(
        items=(Item(0, 0.0, 1, None), Item(1, 0.0, 1, 3.0)), scale=4, adversary=header
    )
    with pytest.raises(SimulationError, match="may make 11 migrations.* item 0 alone may make 10$"):
        checked_run(cfg, deferred)
    invalid = Instance(items=(*past.items, Item(3, 0.0, 9, 1.0)), scale=4)
    with pytest.raises(InvariantViolation, match="^validate: item 3: size exceeds bin capacity$"):
        checked_run(cfg, invalid)


def test_a_migration_at_its_own_arrival_fails_the_decomposition():
    # the small part of item 0 would last no time, which no instance holds
    one = Instance(items=(Item(0, 0.0, 1, 2.0),), scale=2)
    ledger = MigrationLedger(2)
    ledger.entries.append(LedgerEntry(0.0, 0, 1, 0, 1, "Is", "small-to-big"))
    result = SimpleNamespace(ledger=ledger, departures={0: 2.0}, total_active_time=2.0)
    with pytest.raises(InvariantViolation) as exc:
        check_decomposition(one, result, 1.0)
    assert str(exc.value) == (
        "decomposition: invalid sub-instance: item 0: duration must be positive"
    )


def test_a_cost_off_by_one_fails_the_decomposition():
    instance = generators.gen_uniform(200, 8, (1.0, 16.0), 20.0, 0)
    result = simulate(instance, DelayPolicy(16.0), delay_cost=16.0)
    check_decomposition(instance, result, 16.0)
    ff_small, ff_big = (
        simulate(part, FirstFitPolicy()).total_active_time
        for part in decompose_delay_run(instance, result)
    )
    cost = result.total_active_time + 1.0
    with pytest.raises(InvariantViolation) as exc:
        check_decomposition(instance, replace(result, total_active_time=cost), 16.0)
    assert str(exc.value) == (
        f"decomposition: ALG {cost} != FF(small) {ff_small} + FF(big) {ff_big}"
    )


@pytest.mark.parametrize("seed", range(3))
def test_the_decomposition_check_sees_a_first_fit_fault(monkeypatch, seed):
    # the check's FirstFit is its own sweep, so a fault in the engine's
    # first fit, which the delay run used, no longer hides on both sides
    def last_fit(self, group, labels, size_num):
        for label in labels:
            fits = [
                b for b in self.bins_in(group)
                if b.label == label and b.load + size_num <= self.scale
            ]
            if fits:
                return fits[-1]
        return None

    monkeypatch.setattr(engine.Engine, "first_fit", last_fit)
    instance = generators.gen_uniform(400, 8, (1.0, 40.0), 40.0, seed)
    result = simulate(instance, DelayPolicy(100), delay_cost=100.0)
    with pytest.raises(InvariantViolation, match="^decomposition: ALG .* != FF"):
        check_decomposition(instance, result, 100.0)


def ff_parts(instance):
    """An instance's (start, id, size, end) parts as _first_fit_cost reads
    them: one per item, in (arrival, id) order."""
    return sorted(
        (it.arrival, it.id, it.size_num, it.arrival + it.duration) for it in instance.items
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda scale: st.tuples(
            st.just(scale),
            st.lists(
                # (arrival, duration, size) on a grid of halves, so that
                # arrivals and departures often meet
                st.tuples(
                    st.integers(0, 6),
                    st.integers(1, 12),
                    st.one_of(st.just(scale), st.integers(1, scale)),
                ),
                max_size=120,
            ),
        )
    )
)
@example((1, []))
@example((4, [(0, 8, 4)] * 70 + [(k, 1, 1 + k % 4) for k in range(12)]))
def test_first_fit_cost_is_the_engines_exactly(case):
    # against the engine's FirstFit, which scans up to Engine.SCAN_LIMIT
    # open bins and then keeps trees; the sweep's one tree regrows past 8
    # open bins; the example's 70 full bins pass both
    scale, rows = case
    instance = Instance(
        items=tuple(Item(i, a / 2, size, d / 2) for i, (a, d, size) in enumerate(rows)),
        scale=scale,
    )
    expected = simulate(instance, FirstFitPolicy()).total_active_time
    assert harness._first_fit_cost(ff_parts(instance), scale) == expected
    if not rows:
        assert expected == 0.0


def grid_instance(scale, rows):
    """Items (arrival, duration, size), times given in halves: arrivals,
    checkpoints and departures of a delay run at C = 1, 4 or 9 then meet.
    Durations of at least 1 keep the small parts' mu within sqrt(C)."""
    return Instance(
        items=tuple(Item(i, a / 2, size, d / 2) for i, (a, d, size) in enumerate(rows)),
        scale=scale,
    )


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1.0, 4.0, 9.0]),
    st.integers(1, 8).flatmap(
        lambda scale: st.tuples(
            st.just(scale),
            st.lists(
                st.tuples(st.integers(0, 8), st.integers(2, 24), st.integers(1, scale)),
                max_size=40,
            ),
        )
    ),
    st.booleans(),
)
# two items through one checkpoint batch, after a third that arrived first
@example(4.0, (2, [(1, 20, 1), (1, 20, 1), (0, 3, 2)]), False)
# the same, listed against id order
@example(4.0, (2, [(1, 20, 1), (1, 20, 1), (0, 3, 2)]), True)
def test_the_decomposition_check_sweeps_the_parts_events(delay_cost, case, reverse_ids):
    # the check's events per part equal those of decompose_delay_run's
    # sub-instances, each part's number mapped to its item's id, end times
    # included, and so do the costs; arrivals come in any order, ids in
    # item order or against it (the engine breaks equal-time ties by id)
    scale, rows = case
    instance = grid_instance(scale, rows)
    if reverse_ids:
        instance = Instance(
            items=tuple(it._replace(id=len(rows) - 1 - it.id) for it in instance.items),
            scale=scale,
        )
    result = simulate(instance, DelayPolicy(delay_cost), delay_cost=delay_cost)
    swept, costs = [], []

    def recording(parts, scale):
        swept.append(list(parts))
        costs.append(first_fit_cost(swept[-1], scale))
        return costs[-1]

    first_fit_cost = harness._first_fit_cost
    with patch.object(harness, "_first_fit_cost", recording):
        check_decomposition(instance, result, delay_cost)
    expected = part_streams(instance, result)
    assert swept == expected
    assert costs == [first_fit_cost(parts, scale) for parts in expected]


def part_streams(instance, result):
    """decompose_delay_run's small and big parts as (start, id, size, end)
    parts in (start, id) order, each part's number mapped to its item's
    id: the small parts are one per item and the big parts one per
    migration, both numbered in item order."""
    migrations = Counter(e.item for e in result.ledger.entries)
    ids_of_parts = (
        [it.id for it in instance.items],
        [it.id for it in instance.items for _ in range(migrations[it.id])],
    )
    return [
        sorted((start, ids[part], size, end) for start, part, size, end in ff_parts(sub))
        for sub, ids in zip(decompose_delay_run(instance, result), ids_of_parts)
    ]


def test_the_big_parts_stream_in_time_order_however_the_ledger_is_written():
    # each item's migrations stay ascending, but the items' entries come
    # grouped by descending id, not in time order
    instance = generators.gen_uniform(200, 8, (1.0, 16.0), 20.0, 0)
    result = simulate(instance, DelayPolicy(16.0), delay_cost=16.0)
    by_item = sorted(result.ledger.entries, key=lambda e: -e.item)
    assert by_item != result.ledger.entries
    result.ledger.entries[:] = by_item
    check_decomposition(instance, result, 16.0)


def outcome(check):
    """None if check passes, else its InvariantViolation's message."""
    try:
        check()
    except InvariantViolation as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        # (arrival, duration, size) on a coarse grid of halves: many items
        # arrive and depart together, and some lifetimes are empty
        st.tuples(st.integers(0, 4), st.integers(0, 8), st.integers(1, 4)),
        min_size=1,
        max_size=30,
    ).flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(range(len(rows))))),
    st.sampled_from([4.0, 9.0]),
)
def test_listing_order_changes_neither_sweep(case, delay_cost):
    # the same items, ids kept, listed in a drawn order: opt_total's report
    # and the decomposition check's verdict on the delay run are unchanged;
    # the run takes the lifetimes of at least 1, as grid_instance says
    (rows, permutation), scale = case, 4
    instance = grid_instance(scale, rows)
    listed = Instance(items=tuple(instance.items[k] for k in permutation), scale=scale)
    assert opt_total(listed).to_dict() == opt_total(instance).to_dict()

    verdicts = []
    for items in (instance.items, listed.items):
        lived = Instance(items=tuple(it for it in items if it.duration >= 1), scale=scale)
        result = simulate(lived, DelayPolicy(delay_cost), delay_cost=delay_cost)
        verdicts.append(outcome(lambda: check_decomposition(lived, result, delay_cost)))
    assert verdicts[0] == verdicts[1]


def test_the_decomposition_check_holds_only_the_live_parts():
    # the benchmark's dense run: the sweeps hold a heap of the live parts
    # (about 1.2 MiB); one tuple per part boundary, sorted, would take
    # about 3.4 MiB
    instance = generators.gen_uniform(8000, 8, (1.0, 40.0), 800.0, 0)
    result = simulate(instance, DelayPolicy(100), delay_cost=100.0)
    tracemalloc.start()
    try:
        check_decomposition(instance, result, 100.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.ledger.entries) > 10000
    assert peak <= 2.4 * 2**20


def test_equal_time_items_listed_against_id_order_pass_the_decomposition(tmp_path):
    # four items at t = 0 listed as ids 0, 2, 1, 3: the engine packs them by
    # id into two bins, and so must the check's FirstFit on the small parts
    path = tmp_path / "ties.jsonl"
    path.write_text(
        '{"scale": 4}\n'
        + "".join(
            f'{{"id": {i}, "arrival": 0.0, "size_num": {s}, "duration": 1.0}}\n'
            for i, s in ((0, 1), (2, 1), (1, 3), (3, 3))
        )
    )
    instance = core.read_jsonl(path)
    result = simulate(instance, DelayPolicy(1.0), delay_cost=1.0)
    assert result.total_active_time == 2.0
    check_decomposition(instance, result, 1.0)


@pytest.mark.parametrize("seed", range(3))
def test_shifting_a_big_part_by_one_grid_step_fails_the_decomposition(seed):
    # the last big part to end closes the big pool's last bin: ending it
    # one step later costs FF(big) one step more, and nothing else moves
    rng = random.Random(seed)
    rows = [(rng.randrange(40), rng.randrange(2, 40), rng.randrange(1, 5)) for _ in range(60)]
    instance = grid_instance(4, rows)
    result = simulate(instance, DelayPolicy(4.0), delay_cost=4.0)
    check_decomposition(instance, result, 4.0)
    last = max(result.migrations_per_item, key=result.departures.__getitem__)
    result.departures[last] += 0.5
    with pytest.raises(InvariantViolation, match="^decomposition: ALG .* != FF"):
        check_decomposition(instance, result, 4.0)


def hand_run(migrations, departures):
    """A run of size-1 items at scale 2 as check_decomposition reads it:
    each item's migrations in the order given, its departure, and as the
    cost the last departure, one bin open from time 0 (the items'
    lifetimes overlap from 0 on)."""
    ledger = MigrationLedger(2)
    for item_id, times in migrations.items():
        for time in times:
            ledger.entries.append(LedgerEntry(time, item_id, 1, 0, 1, "Is", "small-to-big"))
    return SimpleNamespace(
        ledger=ledger, departures=departures, total_active_time=max(departures.values())
    )


@pytest.mark.parametrize(
    "migrations",
    [
        {3: [1.0]},  # at item 3's arrival: its small part lasts no time
        {3: [2.0], 7: [3.0, 3.0]},  # two at one time: a big part lasts no time
        {3: [math.nan]},
        {7: [3.0, math.nan]},
        {3: [2.0], 7: [3.0, -1.0]},
        {3: [-1.0]},
        {7: [3.0, math.inf]},
    ],
)
def test_a_broken_ledger_fails_the_decomposition_as_validate_would(migrations):
    # the same message as validate on decompose_delay_run's parts, the
    # small parts first, numbered in item order
    instance = Instance(
        items=(Item(5, 0.0, 1, 10.0), Item(3, 1.0, 1, 4.0), Item(7, 2.0, 1, 6.0)), scale=2
    )
    result = hand_run(migrations, {5: 10.0, 3: 9.0, 7: 16.0})
    problems = next(p for p in map(core_validate, decompose_delay_run(instance, result)) if p)
    with pytest.raises(InvariantViolation) as exc:
        check_decomposition(instance, result, 4.0)
    assert str(exc.value) == f"decomposition: invalid sub-instance: {'; '.join(problems)}"


@pytest.mark.parametrize(
    "items, migrations, departures, bound",
    [
        # small parts of 1 and 20 at sqrt(C) = 2
        ((Item(0, 0.0, 1, 1.0), Item(1, 0.0, 1, 30.0)), {1: [20.0]}, {0: 1.0, 1: 34.0},
         "mu of small parts exceeds sqrt(C)"),
        # big parts of 1 and 48
        ((Item(0, 0.0, 1, 30.0),), {0: [1.0, 2.0]}, {0: 50.0}, "mu of big parts exceeds 2"),
    ],
)
def test_a_duration_ratio_past_its_bound_fails_the_decomposition(
    items, migrations, departures, bound
):
    result = hand_run(migrations, departures)
    with pytest.raises(InvariantViolation) as exc:
        check_decomposition(Instance(items=items, scale=2), result, 4.0)
    assert str(exc.value) == f"decomposition: {bound}"


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


def nearest_float_root(f: float, square: Fraction) -> bool:
    """Whether f is the float nearest the square root of square: it lies
    between the squares of f's midpoints to its two neighbours."""
    lo = (Fraction(math.nextafter(f, 0.0)) + Fraction(f)) / 2
    hi = (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2
    return lo * lo <= square <= hi * hi


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(-1e300, 1e300) | st.floats(-1.0, 1.0) | st.integers(-(10**6), 10**6),
        min_size=2,
        max_size=40,
    )
)
@example([1.0, 1.0])
@example([0.1, 0.2, 0.3])
@example([5e-324, 0.0, -5e-324])
def test_sample_stdev_is_the_exact_root_rounded_once(values):
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    variance = sum((x - mean) ** 2 for x in exact) / (len(exact) - 1)
    std = sample_stdev(values)
    assert nearest_float_root(std, variance), (std, float(variance))
    if sys.version_info >= (3, 11):  # where statistics.stdev rounds once too
        assert std == statistics.stdev(values)


@pytest.mark.parametrize("costs", [[math.inf, 1.0], [1.7e308, 1.7e308]])
def test_aggregate_of_costs_past_the_largest_float(costs):
    # times near the largest float make a trial's cost infinite, or two
    # costs sum past it; the mean is then inf and the spread unknown
    agg = aggregate([{"alg_cost": c} for c in costs])["alg_cost"]
    assert agg["mean"] == math.inf and math.isnan(agg["std"])
    assert (agg["min"], agg["max"], agg["n"]) == (min(costs), max(costs), 2)


def test_checked_run_rejects_unknown_check():
    cfg = ExperimentConfig(algorithm="firstfit", generator=dict(UNIFORM), checks=["packng"])
    instance = build_instance(UNIFORM, 0)
    with pytest.raises(ValueError, match="packng"):
        checked_run(cfg, instance)


@pytest.mark.parametrize(
    "alg, options, generator, runs",
    [
        ("alg2", {"alpha": "1/4"}, UNIFORM, 1),
        # the decomposition check computes FirstFit on its two parts with
        # its own sweep, not the engine
        ("delay", {"delay_cost": 16.0}, dict(UNIFORM, duration_range=[1.0, 16.0]), 1),
    ],
)
def test_verify_simulates_once(monkeypatch, alg, options, generator, runs):
    calls = []
    original = harness.simulate
    monkeypatch.setattr(
        harness, "simulate", lambda *a, **kw: calls.append(a) or original(*a, **kw)
    )
    instance = build_instance(generator, 0)
    cfg = ExperimentConfig(algorithm=alg, generator=generator, **options)
    results = cmd_verify(cfg, instance)
    assert [check for check, ok, _ in results if ok] == applicable_checks(alg)
    assert len(calls) == runs


def test_a_checked_trial_validates_its_instance_once(monkeypatch):
    # the engine validates; checked_run and the harness do not again
    calls = []
    for module in (core, engine, harness):

        def counted(instance, _name=module.__name__):
            calls.append(_name)
            return core_validate(instance)

        monkeypatch.setattr(module, "validate", counted, raising=False)
    cfg = ExperimentConfig(
        algorithm="alg2", generator=dict(UNIFORM), alpha="1/4", checks=applicable_checks("alg2")
    )
    run_trial(cfg, 0)
    assert calls == ["dynbin.engine"]


def test_an_invalid_instance_keeps_its_errors():
    bad = Instance(items=(Item(0, 0.0, 0, 1.0), Item(1, 0.0, 9, 1.0)), scale=8)
    problems = core_validate(bad)
    assert len(problems) == 2
    cfg = ExperimentConfig(algorithm="firstfit", generator=dict(UNIFORM), checks=["packing"])
    with pytest.raises(InvariantViolation) as info:
        checked_run(cfg, bad)
    assert (info.value.check, info.value.detail) == ("validate", "; ".join(problems))
    with pytest.raises(SimulationError) as info:
        simulate(bad, FirstFitPolicy())
    assert str(info.value) == "invalid instance: " + "; ".join(problems)


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
    calls = []
    sweep = oracles.opt_total
    monkeypatch.setattr(
        oracles, "opt_total", lambda *args, **kwargs: calls.append(1) or sweep(*args, **kwargs)
    )
    cfg = ExperimentConfig(
        algorithm="alg2",
        generator=dict(UNIFORM),
        alpha="1/4",
        checks=checks,
        compute_opt=compute_opt,
    )
    row = run_trial(cfg, 3)
    assert len(calls) == sweeps
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
