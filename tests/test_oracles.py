import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from dynbin import oracles
from dynbin.core import Instance, Item, UnresolvedDurationError, span, vol, with_durations
from dynbin.engine import Segment, simulate
from dynbin.algorithms import FirstFitPolicy, make_policy
from dynbin.generators import gen_fig2, gen_uniform
from dynbin.harness import InvariantViolation, check_per_time
from dynbin.oracles import (
    OptInterval,
    OptReport,
    SnapshotTooLarge,
    TimeBudgetExceeded,
    ffd_snapshot,
    live_sizes_at,
    opt_snapshot,
    opt_total,
)


def brute_force_opt(sizes, scale):
    """Minimum bins by trying every assignment of items to bin indices."""
    n = len(sizes)
    best = n
    for assignment in itertools.product(range(n), repeat=n):
        loads = [0] * n
        ok = True
        for s, b in zip(sizes, assignment):
            loads[b] += s
            if loads[b] > scale:
                ok = False
                break
        if ok:
            best = min(best, sum(1 for l in loads if l))
    return best


class TestOptSnapshot:
    def test_empty(self):
        assert opt_snapshot([], 8) == 0

    def test_simple_pairs(self):
        assert opt_snapshot([5, 3, 5, 3], 8) == 2
        assert opt_snapshot([5, 5, 5], 8) == 3
        assert opt_snapshot([4, 4, 4, 4], 8) == 2

    def test_ffd_suboptimal_case(self):
        sizes = [5, 5, 4, 4, 3, 3, 3, 3]
        assert ffd_snapshot(sizes, 10) == 4
        assert opt_snapshot(sizes, 10) == 3

    def test_matches_brute_force(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.randint(1, 7)
            scale = rng.choice([4, 8, 16])
            sizes = [rng.randint(1, scale) for _ in range(n)]
            assert opt_snapshot(sizes, scale) == brute_force_opt(sizes, scale)

    def test_sandwiched_by_bounds(self):
        rng = random.Random(7)
        for _ in range(40):
            scale = 8
            sizes = [rng.randint(1, scale) for _ in range(rng.randint(1, 14))]
            opt = opt_snapshot(sizes, scale)
            assert -(-sum(sizes) // scale) <= opt <= ffd_snapshot(sizes, scale)

    def test_large_snapshot_fast_path(self):
        # equal sizes: lower and upper bounds meet, so size is no obstacle
        assert opt_snapshot([1] * 500, 10, max_items=24) == 50

    def test_large_hard_snapshot_rejected(self):
        rng = random.Random(0)
        sizes = [rng.randint(3, 7) for _ in range(60)]
        try:
            opt_snapshot(sizes, 13, max_items=24)
        except SnapshotTooLarge:
            pass  # only raised when the bounds do not already meet

    def test_rejects_invalid_sizes(self):
        with pytest.raises(ValueError):
            opt_snapshot([0], 8)
        with pytest.raises(ValueError):
            opt_snapshot([9], 8)


class TestOptTotal:
    def test_adaptive_construction_value(self):
        instance, resolver = gen_fig2(4, 10.0)
        run = simulate(instance, FirstFitPolicy(), adversary=resolver)
        resolved = with_durations(instance, run.resolved_durations)
        report = opt_total(resolved)
        assert report.all_exact
        assert report.opt_total == 10.0 + 4 - 1

    def test_single_item(self):
        one = Instance(items=(Item(0, 0.0, 3, 2.5),), scale=4)
        report = opt_total(one)
        assert report.opt_total == 2.5
        assert report.lower_bound == 2.5  # span dominates volume

    def test_bounds_sandwich_on_random_instances(self):
        for seed in range(30):
            instance = gen_uniform(14, 8, (1.0, 3.0), 6.0, seed)
            report = opt_total(instance)
            lower = max(vol(instance), span(instance))
            assert lower <= report.opt_total + 1e-9
            assert report.opt_total <= report.upper_bound + 1e-9

    def test_rejects_invalid_items(self):
        for bad in (Item(0, 0.0, 9, 1.0), Item(0, 0.0, 0, 1.0), Item(0, 2.0, 3, -1.0)):
            instance = Instance(items=(Item(1, 0.0, 4, 3.0), bad), scale=8)
            with pytest.raises(ValueError):
                opt_total(instance)
        with pytest.raises(UnresolvedDurationError):
            opt_total(gen_fig2(3, 5.0)[0])

    def test_alg_cost_never_below_opt(self):
        for seed in range(20):
            instance = gen_uniform(12, 8, (1.0, 2.0), 5.0, seed)
            cost = simulate(instance, FirstFitPolicy()).total_active_time
            report = opt_total(instance)
            assert report.all_exact
            assert cost >= report.opt_total - 1e-9


def opt_expected_ub_tradeoff(k: float, s: float, mu: float) -> float:
    """Closed-form expected cost of the witness packing for the random
    equal-size instances: mu*(s*k + 1) + k + 1."""
    return mu * (s * k + 1) + k + 1


def test_expected_witness_formula():
    assert opt_expected_ub_tradeoff(8, 0.25, 16.0) == 57.0
    assert opt_expected_ub_tradeoff(8, 1 / 8, 8.0) == 2 * 8 + 8 + 1


# ----------------------------------------------------------------------
# differential tests: the event sweep against naive references


def list_ffd(sizes, scale):
    """Item-by-item First-Fit-Decreasing, the form ffd_snapshot had
    before it ran on counts of each size."""
    bins = []
    for s in sorted(sizes, reverse=True):
        for i, load in enumerate(bins):
            if load + s <= scale:
                bins[i] = load + s
                break
        else:
            bins.append(s)
    return len(bins)


def naive_opt_total(instance, max_items, time_budget=oracles.DEFAULT_TIME_BUDGET):
    """O(n * intervals): per interval one live_sizes_at scan, one FFD and
    one opt_snapshot, the way opt_total worked before the sweep."""
    boundaries = sorted(
        {it.arrival for it in instance.items}
        | {it.arrival + it.duration for it in instance.items}
    )
    intervals = []
    total = upper_total = 0.0
    all_exact = True
    for start, end in zip(boundaries, boundaries[1:]):
        sizes = live_sizes_at(instance, start)
        ffd = ffd_snapshot(sizes, instance.scale)
        l1 = -(-sum(sizes) // instance.scale)
        try:
            opt, exact = opt_snapshot(sizes, instance.scale, max_items, time_budget), True
        except (SnapshotTooLarge, TimeBudgetExceeded):
            opt, exact, all_exact = l1, False, False
        intervals.append(OptInterval(start, end, exact, opt, l1, ffd))
        total += opt * (end - start)
        upper_total += ffd * (end - start)
    return OptReport(
        opt_total=total,
        all_exact=all_exact,
        lower_bound=max(vol(instance), span(instance)) if instance.items else 0.0,
        upper_bound=upper_total,
        intervals=intervals,
    )


def naive_check_per_time(instance, result, alpha, additive_at, max_items, time_budget):
    """One live_sizes_at scan and one opt_snapshot per segment; a snapshot
    the exact oracle gives up on is judged by its L1 bound, and raises
    SnapshotTooLarge only if that bound does not certify the segment."""
    max_ratio = 0.0
    for seg in result.segments:
        sizes = live_sizes_at(instance, seg.start)
        try:
            opt_t = opt_snapshot(sizes, instance.scale, max_items, time_budget)
            exact = True
        except (SnapshotTooLarge, TimeBudgetExceeded):
            opt_t = -(-sum(sizes) // instance.scale)
            exact = False
        allowed = Fraction(opt_t) / alpha + additive_at(seg.start)
        if Fraction(seg.open_bins) > allowed:
            if not exact:
                raise SnapshotTooLarge(
                    f"OPT_t at t={seg.start} is not exact and {seg.open_bins} open bins "
                    f"> {float(allowed)} allowed by its lower bound {opt_t}"
                )
            raise InvariantViolation(
                "per_time",
                f"{seg.open_bins} open bins > {float(allowed)} allowed (OPT_t={opt_t})",
                seg.start,
            )
        if opt_t > 0:
            max_ratio = max(max_ratio, seg.open_bins / opt_t)
    return max_ratio


def set_cache(contents=None):
    oracles._opt_cache.clear()
    oracles._opt_cache.update(contents or {})


@st.composite
def grid_instances(draw, min_duration=0):
    """Arrivals and durations on an integer grid, so departures meet
    arrivals, gaps open between busy stretches and, with min_duration 0,
    some lifetimes are empty."""
    scale = draw(st.integers(1, 16))
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(min_duration, 4), st.integers(1, scale)),
            min_size=8,  # enough overlap that some snapshots exceed max_items=4
            max_size=24,
        )
    )
    items = tuple(Item(i, float(a), s, float(d)) for i, (a, d, s) in enumerate(rows))
    return Instance(items=items, scale=scale)


# two busy stretches with a gap, a departure on an arrival, a zero-length
# lifetime, and a nine-item interval where FFD (4) misses L1 (3)
HAND_MADE = Instance(
    items=tuple(
        Item(i, a, s, d)
        for i, (a, s, d) in enumerate(
            [(0.0, 5, 2.0), (0.0, 5, 3.0), (0.0, 4, 2.0), (0.0, 4, 2.0), (0.0, 3, 2.0),
             (0.0, 3, 2.0), (0.0, 3, 2.0), (0.0, 3, 2.0), (2.0, 7, 1.0), (2.0, 2, 0.0),
             (6.0, 10, 1.0), (6.0, 1, 2.0)]
        )
    ),
    scale=10,
)


@settings(max_examples=300, deadline=None)
@given(grid_instances(), st.booleans())
@example(HAND_MADE, False)
@example(Instance(items=(), scale=3), False)
@example(HAND_MADE, True)
def test_opt_total_matches_naive_sweep(instance, warm):
    # warm: first fill the cache at a larger max_items, so intervals too
    # large for max_items=4 can still end as exact cache hits
    if warm:
        set_cache()
        opt_total(instance, 24)
    cache = dict(oracles._opt_cache) if warm else {}
    set_cache(cache)
    expected = naive_opt_total(instance, 4).to_dict()
    set_cache(cache)
    assert opt_total(instance, 4).to_dict() == expected


def test_warm_cache_makes_a_large_interval_exact():
    set_cache()
    cold = opt_total(HAND_MADE, 4)
    assert not cold.intervals[0].exact and cold.intervals[0].opt == 3
    opt_total(HAND_MADE, 24)
    warm = opt_total(HAND_MADE, 4)
    assert warm.intervals[0].exact and warm.intervals[0].opt == 3
    assert warm.intervals[0].upper == 4
    set_cache()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda scale: st.tuples(st.just(scale), st.lists(st.integers(1, scale), max_size=40))
    )
)
def test_count_ffd_matches_item_ffd(case):
    scale, sizes = case
    assert ffd_snapshot(sizes, scale) == list_ffd(sizes, scale)


@settings(max_examples=200, deadline=None)
@given(
    grid_instances(min_duration=1),
    st.sampled_from(["firstfit", "alg2", "delay"]),
    st.sampled_from([Fraction(1, 4), Fraction(9, 10)]),
    st.integers(0, 1),
)
def test_check_per_time_matches_per_segment_scan(instance, alg, alpha, additive):
    # delay runs keep items past their instance departure, so segments
    # start inside intervals and after the last boundary
    delay_cost = 4.0 if alg == "delay" else 0.0
    result = simulate(
        instance, make_policy(alg, alpha=Fraction(1, 4), delay_cost=delay_cost), delay_cost
    )

    def outcome(check):
        set_cache()
        try:
            return check()
        except (InvariantViolation, SnapshotTooLarge) as exc:
            return type(exc), str(exc)

    assert outcome(
        lambda: check_per_time(opt_total(instance, 4, 2.0), result, alpha, lambda t: additive)
    ) == outcome(
        lambda: naive_check_per_time(instance, result, alpha, lambda t: additive, 4, 2.0)
    )


def test_check_per_time_outside_the_boundaries_sees_no_items():
    # hand-made segments: before the first arrival, on it, inside an
    # interval, and after the last departure
    instance = Instance(items=(Item(0, 1.0, 3, 2.0), Item(1, 2.0, 6, 2.0)), scale=8)
    starts = [0.0, 1.0, 2.5, 3.0, 4.0, 5.0]
    segments = [Segment(a, b, 1) for a, b in zip(starts, starts[1:] + [6.0])]
    result = SimpleNamespace(segments=segments)
    report = opt_total(instance, 4, 2.0)
    checks = (
        lambda additive: check_per_time(report, result, Fraction(1), lambda t: additive),
        lambda additive: naive_check_per_time(
            instance, result, Fraction(1), lambda t: additive, 4, 2.0
        ),
    )
    assert checks[0](1) == 1.0
    for check in checks:
        with pytest.raises(InvariantViolation) as info:
            check(0)
        assert str(info.value) == "per_time: 1 open bins > 0.0 allowed (OPT_t=0) (t=0.0)"
    segments[0] = Segment(0.0, 1.0, 0)
    for check in checks:
        with pytest.raises(InvariantViolation) as info:
            check(0)
        assert str(info.value) == "per_time: 1 open bins > 0.0 allowed (OPT_t=0) (t=4.0)"
