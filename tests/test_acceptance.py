"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with -s to see them live). The
randomized sweeps use frozen seed ranges, so every run checks the exact
same instances.
"""

import json
import math
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from dynbin.core import Instance, Item, vol, with_durations
from dynbin.engine import simulate
from dynbin.algorithms import (
    DelayPolicy,
    FirstFitPolicy,
    MultiClassPolicy,
    SizeCostPolicy,
)
from dynbin.generators import (
    gen_basic_lb,
    gen_fig2,
    gen_tradeoff_lb,
    gen_uniform,
)
from dynbin.harness import (
    InvariantViolation,
    bad_bin_observer,
    check_decomposition,
    check_delay_schedule,
    check_migration_budget,
    check_per_time,
    check_size_budget,
)
from dynbin.oracles import ffd_snapshot, live_sizes_at, opt_snapshot, opt_total
from references import span


def report(num, name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# ----------------------------------------------------------------------
# shared sweeps

UNIFORM_SEEDS = range(1000)


def uniform_instance(seed):
    return gen_uniform(40, 16, (1.0, 2.0), 20.0, seed)


@pytest.fixture(scope="session")
def multiclass_sweep():
    """Run the multi-class algorithm at three thresholds over the frozen
    uniform workload; tally violations of each per-run inequality."""
    alphas = [Fraction("0.1"), Fraction("0.25"), Fraction("0.4")]
    stats = {
        "runs": 0,
        "per_time": 0,
        "migration": 0,
        "structure": 0,
        "max_live": 0,
        "elapsed": 0.0,
    }
    start = time.perf_counter()
    for seed in UNIFORM_SEEDS:
        instance = uniform_instance(seed)
        stats["max_live"] = max(
            stats["max_live"],
            max(
                len(live_sizes_at(instance, it.arrival))
                for it in instance.items
            ),
        )
        for alpha in alphas:
            policy = MultiClassPolicy(alpha)
            try:
                result = simulate(
                    instance, policy, observers=[bad_bin_observer(instance.scale)]
                )
            except InvariantViolation:
                stats["structure"] += 1
                continue
            stats["runs"] += 1
            try:
                check_per_time(
                    opt_total(instance), result, alpha,
                    lambda t: 2 * policy.phases_at(t),
                )
            except InvariantViolation:
                stats["per_time"] += 1
            try:
                check_migration_budget(instance, result, alpha)
            except InvariantViolation:
                stats["migration"] += 1
    stats["elapsed"] = time.perf_counter() - start
    return stats


@pytest.fixture(scope="session")
def delay_sweep():
    stats = {"runs": 0, "schedule": 0, "decomposition": 0}
    for c in (16.0, 100.0, 900.0):
        sqrt_c = math.sqrt(c)
        for seed in range(500):
            instance = gen_uniform(25, 8, (1.0, 4 * sqrt_c), 10.0, seed)
            result = simulate(instance, DelayPolicy(c), delay_cost=c)
            stats["runs"] += 1
            try:
                check_delay_schedule(instance, result, c)
            except InvariantViolation:
                stats["schedule"] += 1
            try:
                check_decomposition(instance, result, c)
            except InvariantViolation:
                stats["decomposition"] += 1
    return stats


# ----------------------------------------------------------------------
# criteria

def test_criterion_1_adaptive_construction_exact():
    start = time.perf_counter()
    instance = gen_fig2(10, 100.0)
    run = simulate(instance, FirstFitPolicy())
    resolved = with_durations(instance, run.resolved_durations)
    opt = opt_total(resolved)
    elapsed = time.perf_counter() - start
    ratio = run.total_active_time / opt.opt_total
    report(
        1,
        "adaptive construction: FirstFit 1000 vs optimum 109",
        run.total_active_time == 1000.0
        and opt.opt_total == 109.0
        and opt.all_exact
        and elapsed < 1.0,
        f"alg={run.total_active_time} opt={opt.opt_total} ratio={ratio:.4f} "
        f"t={elapsed:.2f}s",
    )


def test_criterion_2_per_time_bound(multiclass_sweep):
    s = multiclass_sweep
    report(
        2,
        "multi-class per-time bound ALG_t <= OPT_t/alpha + 2*phases",
        s["per_time"] == 0 and s["runs"] == 3000 and s["elapsed"] < 300.0,
        f"runs={s['runs']} violations={s['per_time']} max_live={s['max_live']} "
        f"t={s['elapsed']:.1f}s",
    )


def test_criterion_3_migration_budget(multiclass_sweep):
    s = multiclass_sweep
    report(
        3,
        "migration budget 4a/(1-2a) per run and per class",
        s["migration"] == 0 and s["runs"] == 3000,
        f"runs={s['runs']} violations={s['migration']}",
    )


def test_criterion_4_structure_invariants(multiclass_sweep):
    s = multiclass_sweep
    report(
        4,
        "at most one Bad bin per class, junk bin within capacity",
        s["structure"] == 0 and s["runs"] == 3000,
        f"runs={s['runs']} violations={s['structure']}",
    )


def test_criterion_5_size_cost_variant():
    violations = 0
    runs = 0
    for seed in UNIFORM_SEEDS:
        instance = uniform_instance(seed)
        for alpha in (Fraction("0.1"), Fraction("0.25")):
            result = simulate(instance, SizeCostPolicy(alpha))
            runs += 1
            try:
                check_size_budget(instance, result, alpha)
                check_per_time(opt_total(instance), result, alpha, lambda t: 1)
            except InvariantViolation:
                violations += 1
    report(
        5,
        "size-cost variant: migrated size and per-time bounds",
        violations == 0 and runs == 2000,
        f"runs={runs} violations={violations}",
    )


def test_criterion_6_delay_schedule(delay_sweep):
    s = delay_sweep
    report(
        6,
        "delay model: migration count and exact delayed departures",
        s["schedule"] == 0 and s["runs"] == 1500,
        f"runs={s['runs']} violations={s['schedule']}",
    )


def test_criterion_7_delay_decomposition(delay_sweep):
    s = delay_sweep
    report(
        7,
        "delay cost equals FirstFit on the two decomposed sub-instances",
        s["decomposition"] == 0 and s["runs"] == 1500,
        f"runs={s['runs']} violations={s['decomposition']}",
    )


def _bins_with_long_item_at_zero(instance, result, long_duration):
    placed = {}
    for event in result.trace:
        if event["time"] != 0.0:
            continue
        for act in event["actions"]:
            if act["action"] == "place":
                placed[act["item"]] = act["bin"]
    long_ids = {it.id for it in instance.items if it.duration == long_duration}
    return len({b for i, b in placed.items() if i in long_ids})


def _witness_cost(instance, mu, inv_s):
    """Cost of packing long items by themselves and short items by
    themselves, each first-fit at time zero."""
    big = sum(1 for it in instance.items if it.duration == mu)
    small = len(instance.items) - big
    return mu * math.ceil(big / inv_s) + math.ceil(small / inv_s)


def test_criterion_8_tradeoff_lower_bound_mechanics():
    start = time.perf_counter()
    inv_s, k, mu = 4, 8, 16.0
    long_bins = []
    witnesses = []
    for seed in range(2000):
        instance = gen_tradeoff_lb(inv_s, k, mu, seed)
        result = simulate(instance, FirstFitPolicy())
        long_bins.append(_bins_with_long_item_at_zero(instance, result, mu))
        witnesses.append(_witness_cost(instance, mu, inv_s))
    elapsed = time.perf_counter() - start
    mean_bins = statistics.fmean(long_bins)
    sem = statistics.stdev(long_bins) / math.sqrt(len(long_bins))
    mean_witness = statistics.fmean(witnesses)
    report(
        8,
        "random equal-size trade-off family: spread and witness cost",
        mean_bins >= k / 2 - 3 * sem and mean_witness <= 57.0 and elapsed < 120.0,
        f"mean_long_bins={mean_bins:.3f} (need >= {k/2 - 3*sem:.3f}) "
        f"mean_witness={mean_witness:.2f} (need <= 57) t={elapsed:.1f}s",
    )


def test_criterion_9_zero_migration_hardness_mechanics():
    k, mu = 8, 8.0
    costs = []
    witnesses = []
    for seed in range(2000):
        instance = gen_basic_lb(k, mu, seed)
        result = simulate(instance, FirstFitPolicy())
        costs.append(result.total_active_time)
        witnesses.append(_witness_cost(instance, mu, k))
    mean_cost = statistics.fmean(costs)
    sem = statistics.stdev(costs) / math.sqrt(len(costs))
    mean_witness = statistics.fmean(witnesses)
    report(
        9,
        "zero-migration hardness: FirstFit cost vs witness optimum",
        mean_cost >= k * mu / 2 - 3 * sem and mean_witness <= 2 * mu + k + 1,
        f"mean_alg={mean_cost:.2f} (need >= {k*mu/2 - 3*sem:.2f}) "
        f"mean_witness={mean_witness:.2f} (need <= {2*mu + k + 1})",
    )


def _partition_opt(sizes, scale):
    """Independent reference: exhaustive search over set partitions."""
    n = len(sizes)
    best = [n]
    loads = []

    def rec(i):
        if len(loads) >= best[0]:
            return
        if i == n:
            best[0] = len(loads)
            return
        for j in range(len(loads)):
            if loads[j] + sizes[i] <= scale:
                loads[j] += sizes[i]
                rec(i + 1)
                loads[j] -= sizes[i]
        loads.append(sizes[i])
        rec(i + 1)
        loads.pop()

    rec(0)
    return best[0]


def test_criterion_10_oracle_correctness():
    start = time.perf_counter()
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(200):
        scale = rng.choice([4, 8, 16])
        sizes = [rng.randint(1, scale) for _ in range(rng.randint(1, 8))]
        if opt_snapshot(sizes, scale) != _partition_opt(sizes, scale):
            mismatches += 1
    sandwich_failures = 0
    for seed in range(500):
        instance = gen_uniform(12, 8, (1.0, 3.0), 6.0, seed)
        rep = opt_total(instance)
        lower = max(vol(instance), span(instance))
        if not (lower <= rep.opt_total + 1e-9 <= rep.upper_bound + 2e-9):
            sandwich_failures += 1
    elapsed = time.perf_counter() - start
    report(
        10,
        "snapshot oracle matches brute force; integral bounds sandwich",
        mismatches == 0 and sandwich_failures == 0 and elapsed < 120.0,
        f"mismatches={mismatches} sandwich_failures={sandwich_failures} "
        f"t={elapsed:.1f}s",
    )


def test_criterion_11_cli_determinism(tmp_path):
    cfg = {
        "algorithm": "alg2",
        "alpha": "1/4",
        "generator": {
            "family": "uniform",
            "n": 25,
            "size_grid": 16,
            "duration_range": [1.0, 2.0],
            "arrival_window": 10.0,
        },
        "trials": 10,
        "base_seed": 0,
        "checks": ["packing", "bad_bins", "junk_load"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for name in ("first", "second"):
        rep = tmp_path / f"{name}.json"
        csv = tmp_path / f"{name}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "dynbin", "run", "--config", str(cfg_path),
             "-o", str(rep), "--csv", str(csv)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((rep.read_bytes(), csv.read_bytes()))
    report(
        11,
        "identical config and seed reproduce byte-identical outputs",
        outputs[0] == outputs[1],
        f"csv_bytes={len(outputs[0][1])}",
    )
