import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from dynbin import oracles
from dynbin.core import Instance, Item, UnresolvedDurationError, vol, with_durations
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
from references import span


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
        assert opt_snapshot([1] * 500, 10) == 50

    def test_large_hard_snapshot_rejected(self):
        rng = random.Random(0)
        sizes = [rng.randint(3, 7) for _ in range(60)]
        try:
            opt_snapshot(sizes, 13)
        except SnapshotTooLarge:
            pass  # only raised when the bounds do not already meet

    def test_rejects_invalid_sizes(self):
        with pytest.raises(ValueError):
            opt_snapshot([0], 8)
        with pytest.raises(ValueError):
            opt_snapshot([9], 8)


class TestOptTotal:
    def test_adaptive_construction_value(self):
        instance = gen_fig2(4, 10.0)
        run = simulate(instance, FirstFitPolicy())
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
            opt_total(gen_fig2(3, 5.0))

    @pytest.mark.parametrize(
        "arrival, duration",
        [
            (math.nan, 3.0),
            (1.0, math.nan),
            (math.inf, 3.0),
            (-math.inf, 3.0),
            (1.0, math.inf),
            (1e308, 1e308),  # an end past the largest float
        ],
        ids=["nan-arrival", "nan-duration", "inf-arrival", "minus-inf-arrival",
             "inf-duration", "end-overflows"],
    )
    def test_rejects_times_that_are_not_finite(self, arrival, duration):
        # the merge could not pass a NaN boundary, and an infinite one
        # would make the integral infinite
        instance = Instance(items=(Item(0, arrival, 3, duration), Item(1, 1.0, 3, 1.0)), scale=8)
        with pytest.raises(ValueError, match="^item 0: arrival and end must be finite$"):
            opt_total(instance)

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


def naive_opt_total(instance):
    """O(n * intervals): per interval one live_sizes_at scan, one
    item-by-item FFD and one opt_snapshot, the way opt_total worked before
    the sweep."""
    boundaries = sorted(
        {it.arrival for it in instance.items}
        | {it.arrival + it.duration for it in instance.items}
    )
    intervals = []
    total = upper_total = 0.0
    all_exact = True
    for start, end in zip(boundaries, boundaries[1:]):
        sizes = live_sizes_at(instance, start)
        ffd = list_ffd(sizes, instance.scale)
        l1 = -(-sum(sizes) // instance.scale)
        try:
            opt, exact = opt_snapshot(sizes, instance.scale), True
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


def naive_check_per_time(instance, result, alpha, additive_at):
    """One live_sizes_at scan and one opt_snapshot per segment; a snapshot
    the exact oracle gives up on is judged by its L1 bound, and raises
    SnapshotTooLarge only if that bound does not certify the segment."""
    max_ratio = 0.0
    for seg in result.segments:
        sizes = live_sizes_at(instance, seg.start)
        try:
            opt_t = opt_snapshot(sizes, instance.scale)
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


def clear_cache():
    """Empty the oracle cache, so a test starts from a cold one."""
    oracles._opt_cache.clear()


@st.composite
def grid_instances(draw, min_duration=0, max_scale=16, max_items=24):
    """Arrivals and durations on an integer grid, so departures meet
    arrivals, gaps open between busy stretches and, with min_duration 0,
    some lifetimes are empty."""
    scale = draw(st.integers(1, max_scale))
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(min_duration, 4), st.integers(1, scale)),
            min_size=8,  # enough overlap that some snapshots exceed MAX_ITEMS 4
            max_size=max_items,
        )
    )
    items = tuple(Item(i, float(a), s, float(d)) for i, (a, d, s) in enumerate(rows))
    return Instance(items=items, scale=scale)


# two busy stretches with a gap, a departure on an arrival, a zero-length
# lifetime, and an eight-item interval where FFD (4) misses L1 (3)
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


# up to 60 items on scales up to 64: intervals hold several copies of a
# size, sizes above half a bin, and far more than MAX_ITEMS 4 live items
@settings(max_examples=300, deadline=None)
@given(grid_instances(max_scale=64, max_items=60), st.booleans())
@example(HAND_MADE, False)
@example(Instance(items=(), scale=3), False)
@example(HAND_MADE, True)
def test_opt_total_matches_naive_sweep(instance, warm):
    # both sweeps at MAX_ITEMS 4, the naive one from a cold cache; warm:
    # the fast sweep runs after one at MAX_ITEMS 24 has cached snapshots of
    # more than 4 items, which must change no interval
    clear_cache()
    with patch.object(oracles, "MAX_ITEMS", 4):
        expected = naive_opt_total(instance).to_dict()
    clear_cache()
    if warm:
        opt_total(instance)
    with patch.object(oracles, "MAX_ITEMS", 4):
        assert opt_total(instance).to_dict() == expected
    clear_cache()


def test_a_cached_snapshot_past_max_items_stays_inexact(monkeypatch):
    # a sweep at MAX_ITEMS 24 solves HAND_MADE's first interval; a sweep at
    # MAX_ITEMS 4 still leaves it at L1
    clear_cache()
    opt_total(HAND_MADE)
    assert (5, 5, 4, 4, 3, 3, 3, 3) in {sizes for sizes, _ in oracles._opt_cache}
    monkeypatch.setattr(oracles, "MAX_ITEMS", 4)
    report = opt_total(HAND_MADE)
    assert not report.intervals[0].exact and report.intervals[0].opt == 3
    assert report.intervals[0].upper == 4
    clear_cache()


def test_a_search_past_the_node_budget_leaves_its_interval_at_l1(monkeypatch):
    # the eight-item first interval of HAND_MADE needs more than two nodes
    monkeypatch.setattr(oracles, "NODE_BUDGET", 2)
    clear_cache()
    sizes = [5, 5, 4, 4, 3, 3, 3, 3]
    with pytest.raises(TimeBudgetExceeded):
        opt_snapshot(sizes, 10)
    first = opt_total(HAND_MADE)
    assert not first.all_exact
    assert not first.intervals[0].exact and first.intervals[0].opt == 3
    assert first.intervals[0].upper == 4
    assert opt_total(HAND_MADE).to_dict() == first.to_dict()
    assert oracles._opt_cache == {}
    monkeypatch.undo()
    assert opt_snapshot(sizes, 10) == 3
    clear_cache()


def test_ffd_shortcut_edges():
    # every multiset of two to four sizes on scales 2..6, arriving one at a
    # time and leaving largest id first: intervals with exactly 2 and 3
    # live items, and with live volume exactly scale and scale + 1, around
    # where the sweep stops skipping FFD
    seen = set()
    for scale in range(2, 7):
        for k in (2, 3, 4):
            for sizes in itertools.combinations_with_replacement(range(1, scale + 1), k):
                items = tuple(
                    Item(i, float(i), s, float(2 * k - 2 * i)) for i, s in enumerate(sizes)
                )
                instance = Instance(items=items, scale=scale)
                clear_cache()
                report = opt_total(instance)
                assert report.all_exact
                for iv in report.intervals:
                    live = live_sizes_at(instance, iv.start)
                    assert iv.lower == -(-sum(live) // scale)
                    assert iv.upper == list_ffd(live, scale)
                    assert iv.opt == brute_force_opt(live, scale)
                    seen.add(("items", len(live)))
                    seen.add(("volume", sum(live) - scale))
    clear_cache()
    assert {("items", 2), ("items", 3), ("volume", 0), ("volume", 1)} <= seen


def test_ffd_is_skipped_up_to_one_and_a_half_bins(monkeypatch):
    # every multiset of three to five sizes on scales 2..8, all live on one
    # interval: the sweep runs FFD exactly where 2 * volume > 3 * scale,
    # and its bound equals ffd_snapshot on both sides of that edge
    calls = []
    ffd_counts = oracles._ffd_counts
    monkeypatch.setattr(
        oracles, "_ffd_counts", lambda *args: calls.append(1) or ffd_counts(*args)
    )
    seen = set()
    for scale in range(2, 9):
        for k in (3, 4, 5):
            for sizes in itertools.combinations_with_replacement(range(1, scale + 1), k):
                items = tuple(Item(i, 0.0, s, 1.0) for i, s in enumerate(sizes))
                (iv,) = opt_total(Instance(items=items, scale=scale)).intervals
                edge = 2 * sum(sizes) - 3 * scale
                assert len(calls) == (edge > 0)
                assert iv.lower == -(-sum(sizes) // scale)
                assert iv.upper == ffd_snapshot(sizes, scale)
                assert iv.exact and iv.opt == opt_snapshot(sizes, scale)
                calls.clear()
                if edge <= 0:
                    assert iv.lower == iv.upper <= 2
                seen.add(min(max(edge, -1), 2))
    assert seen == {-1, 0, 1, 2}


@settings(max_examples=200, deadline=None)
@given(grid_instances(max_scale=64, max_items=60))
@example(HAND_MADE)
def test_sizes_are_built_only_for_intervals_the_solver_can_take(instance):
    # on an empty cache, branch and bound gets the live sizes of exactly
    # the intervals where FFD misses L1 and at most MAX_ITEMS items live
    calls = []
    solve = oracles._solve
    clear_cache()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "MAX_ITEMS", 4)
        mp.setattr(
            oracles, "_solve", lambda sizes, *args: calls.append(sizes) or solve(sizes, *args)
        )
        report = opt_total(instance)
    clear_cache()
    expected = []
    for iv in report.intervals:
        live = live_sizes_at(instance, iv.start)
        if iv.lower < iv.upper and len(live) <= 4:
            expected.append(tuple(sorted(live, reverse=True)))
    assert calls == expected


def ffd_runs(sizes, scale):
    """The runs of bins FFD opens for the sizes above half a bin, room
    ascending, and their bin count, built afresh from a multiset; and the
    counts of the other sizes, those sizes ascending."""
    counts = Counter(sizes)
    big = sorted((s for s in counts if 2 * s > scale), reverse=True)
    small = sorted(s for s in counts if 2 * s <= scale)
    return (
        [scale - s for s in big if s < scale],
        [counts[s] for s in big if s < scale],
        sum(counts[s] for s in big),
        {s: counts[s] for s in small},
        small,
    )


@settings(max_examples=200, deadline=None)
@given(grid_instances(max_scale=64, max_items=60))
@example(HAND_MADE)
def test_the_sweep_keeps_ffds_runs_of_the_live_sizes(instance):
    # the runs, bin count and small sizes the sweep hands FFD at each
    # interval it runs FFD on are those of the interval's live sizes
    calls = []
    ffd_counts = oracles._ffd_counts

    def record(room, width, bins, counts, small, scale):
        calls.append((room[:], width[:], bins, dict(counts), small[:]))
        return ffd_counts(room, width, bins, counts, small, scale)

    with patch.object(oracles, "_ffd_counts", record):
        report = opt_total(instance)
    scale = instance.scale
    expected = []
    for iv in report.intervals:
        live = live_sizes_at(instance, iv.start)
        if len(live) > 2 and 2 * sum(live) > 3 * scale:
            expected.append(ffd_runs(live, scale))
    assert calls == expected


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda scale: st.tuples(st.just(scale), st.lists(st.integers(1, scale), max_size=40))
    )
)
def test_count_ffd_matches_item_ffd(case):
    scale, sizes = case
    assert ffd_snapshot(sizes, scale) == list_ffd(sizes, scale)


@st.composite
def runs_of_copies(draw):
    """A scale up to 256 and up to 80 copies of each of 1-6 distinct sizes,
    scale and scale // 2 among the sizes drawn most: the multisets that
    open, split and fill runs of equal bins in FFD on counts."""
    scale = draw(st.integers(1, 256))
    size = st.sampled_from([scale, max(1, scale // 2)]) | st.integers(1, scale)
    sizes = draw(st.lists(size, min_size=1, max_size=6, unique=True))
    return scale, [s for s in sizes for _ in range(draw(st.integers(1, 80)))]


@settings(max_examples=300, deadline=None)
@given(runs_of_copies())
@example((256, [256] * 3 + [128] * 80 + [85] * 7 + [3] * 80))
@example((9, [9] * 5 + [4] * 80 + [1] * 11))
@example((20, [11] * 6 + [4] * 7 + [2] * 5))  # splits into three runs, then into two
# one example per way a run splits in place, with k = room // size copies
# to a bin and c copies left for the run: q = c // k bins take k copies.
# The sizes after the split fill its pieces, so a piece of the wrong room
# or width changes the count
# q = 2 keep room 2, one bin takes 1, 2 stay untouched
@example((30, [16] * 5 + [4] * 7 + [3] * 13 + [2] * 15))
# q = 2 filled to the brim leave, one bin takes 1
@example((20, [12] * 5 + [4] * 5 + [3] * 6))
# q = 2 filled to the brim leave, none takes fewer
@example((20, [12] * 5 + [4] * 4 + [2] * 4 + [1] * 21))
# q = 0: the run's first bin takes all 3
@example((20, [11] * 3 + [2] * 3 + [1] * 21))
# the runs of the sizes above half a bin ascend in room, and a small size
# bisects them only up to the first run a larger small size touched. In
# each example below a 2 first fits the untouched run of room 2, which lies
# before a run of room 1 that a larger small size left: a bisection over
# both would meet the room 1 and pass the room 2
# odd scale: 3 = 7 // 2 fills the room 3 left by 4 = (7 + 1) // 2
@example((7, [5, 4, 3, 3, 3, 2]))
# a size equal to scale fills its own bin and opens no run
@example((16, [16, 14, 11, 4, 2]))
# the 4 splits the run of two bins of room 5 into rooms 1 and 5; the first
# 2 fills the run of room 2, the next two the split run's room-5 piece
@example((11, [9, 6, 6, 4, 2, 2, 2]))
def test_count_ffd_matches_item_ffd_on_many_copies(case):
    scale, sizes = case
    assert ffd_snapshot(sizes, scale) == list_ffd(sizes, scale)


@st.composite
def divisible_instances(draw):
    """Sizes 1, 2, 4, ... over a power-of-two scale up to 256, and 40-60
    items, all of them live on [3, 5): items arrive at 0-3 and stay 5-12."""
    exponent = draw(st.integers(1, 8))
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(5, 12), st.integers(0, exponent)),
            min_size=40,
            max_size=60,
        )
    )
    items = tuple(Item(i, float(a), 1 << e, float(d)) for i, (a, d, e) in enumerate(rows))
    return Instance(items=items, scale=1 << exponent)


@settings(max_examples=100, deadline=None)
@given(divisible_instances())
def test_ffd_is_exact_on_divisible_sizes(instance):
    # when every size divides every larger one and the bin, FFD fills every
    # bin but the last (Coffman, Garey and Johnson 1987): FFD on counts
    # must meet L1 on every interval, however many items are live
    calls = []
    ffd_counts = oracles._ffd_counts
    with patch.object(
        oracles, "_ffd_counts", lambda *args: calls.append(1) or ffd_counts(*args)
    ):
        report = opt_total(instance)
    assert report.all_exact
    assert all(iv.lower == iv.upper == iv.opt for iv in report.intervals)
    live = max(len(live_sizes_at(instance, iv.start)) for iv in report.intervals)
    assert live == len(instance.items) >= 40
    volume = sum(it.size_num for it in instance.items)
    assert bool(calls) == (2 * volume > 3 * instance.scale)


# a span-dominated instance at scale 64: abutting lifetimes, three items
# ending where a fourth begins, gaps between stretches, and zero-duration
# items in a gap, at a stretch's start and at its end
SPARSE = Instance(
    items=tuple(
        Item(i, a, s, d)
        for i, (a, s, d) in enumerate(
            [(0.0, 1, 1.0), (1.0, 2, 0.5), (1.5, 1, 1.5), (2.0, 1, 1.0), (2.5, 2, 0.5),
             (3.0, 1, 0.7), (5.0, 1, 0.0), (6.1, 2, 0.0), (6.1, 1, 0.3), (6.4, 1, 0.0),
             (9.0, 2, 0.1), (9.0, 1, 0.2)]
        )
    ),
    scale=64,
)


# tiny sizes (at most 2 of 64) and sparse arrivals on a grid of tenths, so
# the span sets the lower bound: up to 12 items hold the volume below
# 12 * 2 / 64 of the span. Zero durations, abutting lifetimes and shared
# boundaries come from the grid
sparse_instances = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 8), st.integers(1, 2)), max_size=12
).map(
    lambda rows: Instance(
        items=tuple(Item(i, a / 10, s, d / 10) for i, (a, d, s) in enumerate(rows)),
        scale=64,
    )
)


@settings(max_examples=300, deadline=None)
@given(sparse_instances)
@example(SPARSE)
@example(Instance(items=(Item(0, 0.5, 1, 0.0),), scale=64))
@example(Instance(items=(), scale=64))
def test_the_sweeps_span_is_core_span_exactly(instance):
    report = opt_total(instance)
    if not instance.items:
        assert report.lower_bound == 0.0
        return
    assert report.lower_bound == max(vol(instance), span(instance))
    if span(instance):
        assert report.lower_bound == span(instance) > vol(instance)


def test_the_sweeps_span_of_sparse():
    # stretches [0, 3.7), [6.1, 6.4) and [9.0, 9.2); 5.0 holds only an
    # empty lifetime
    assert opt_total(SPARSE).lower_bound == pytest.approx(3.7 + 0.3 + 0.2)


def test_opt_total_matches_naive_sweep_at_forty_live_items():
    # the benchmark's offline shape at a tenth of its length: about 40 live
    # items and 1,200 intervals
    instance = gen_uniform(600, 16, (1.0, 2.0), 600 * 1.5 / 40, 7)
    clear_cache()
    report = opt_total(instance)
    clear_cache()
    assert report.to_dict() == naive_opt_total(instance).to_dict()
    clear_cache()
    assert len(report.intervals) > 1000
    assert max(len(live_sizes_at(instance, iv.start)) for iv in report.intervals) > 40


def test_opt_total_holds_only_the_live_items_beyond_its_report():
    # the benchmark's offline instance: the two sorted item lists and the
    # live sizes take about 16 bytes per item; a dict of +-size lists per
    # boundary would take about 330
    instance = gen_uniform(6000, 16, (1.0, 2.0), 225.0, 0)
    opt_total(instance)  # fill the oracle cache first
    tracemalloc.start()
    try:
        report = opt_total(instance)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.intervals) > 11000
    assert peak - current <= 0.25 * 2**20


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
        clear_cache()
        try:
            return check()
        except (InvariantViolation, SnapshotTooLarge) as exc:
            return type(exc), str(exc)

    with patch.object(oracles, "MAX_ITEMS", 4):
        assert outcome(
            lambda: check_per_time(opt_total(instance), result, alpha, lambda t: additive)
        ) == outcome(lambda: naive_check_per_time(instance, result, alpha, lambda t: additive))


@pytest.mark.parametrize("seed", range(3))
def test_check_per_time_on_bursts_matches_per_segment_scan(seed):
    # two bursts of equal arrivals, 4 at t=0 and 20 at t=3, after the first
    # have left: each doubles alg2's guess more than once at its time, so
    # phase_history repeats its start times
    rng = random.Random(seed)
    items = tuple(
        Item(i, 0.0 if i < 4 else 3.0, rng.randint(1, 16), rng.uniform(1.0, 2.0))
        for i in range(24)
    )
    instance = Instance(items=items, scale=16)
    policy = make_policy("alg2", alpha=Fraction(1, 4))
    result = simulate(instance, policy)
    assert [start for start, _ in policy.phase_history] == [0.0] * 3 + [3.0] * 3
    clear_cache()
    ratio = check_per_time(opt_total(instance), result, Fraction(1, 4), policy.additive_at)
    clear_cache()
    assert ratio > 0
    assert ratio == naive_check_per_time(instance, result, Fraction(1, 4), policy.additive_at)


def test_check_per_time_outside_the_boundaries_sees_no_items():
    # hand-made segments: before the first arrival, on it, inside an
    # interval, and after the last departure
    instance = Instance(items=(Item(0, 1.0, 3, 2.0), Item(1, 2.0, 6, 2.0)), scale=8)
    times = [0.0, 1.0, 2.5, 3.0, 4.0, 5.0, 6.0]

    def hand_made(open_counts):
        segments = [Segment(*seg) for seg in zip(times, times[1:], open_counts)]
        return SimpleNamespace(times=times, open_counts=open_counts, segments=segments)

    result = hand_made([1] * 6)
    report = opt_total(instance)
    checks = (
        lambda additive: check_per_time(report, result, Fraction(1), lambda t: additive),
        lambda additive: naive_check_per_time(instance, result, Fraction(1), lambda t: additive),
    )
    assert checks[0](1) == 1.0
    for check in checks:
        with pytest.raises(InvariantViolation) as info:
            check(0)
        assert str(info.value) == "per_time: 1 open bins > 0.0 allowed (OPT_t=0) (t=0.0)"
    result = hand_made([0] + [1] * 5)
    for check in checks:
        with pytest.raises(InvariantViolation) as info:
            check(0)
        assert str(info.value) == "per_time: 1 open bins > 0.0 allowed (OPT_t=0) (t=4.0)"
