from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynbin import cli, harness
from dynbin.core import Instance, Item, mu
from dynbin.engine import BAD, GOOD, simulate
from dynbin.algorithms import (
    ALGORITHMS,
    DelayPolicy,
    FirstFitPolicy,
    MultiClassPolicy,
    SingleClassPolicy,
    SizeCostPolicy,
    decompose_delay_run,
    make_policy,
    size_class,
)
from dynbin.core import ScaledSize
from dynbin.generators import gen_uniform


def inst(items, scale=8):
    return Instance(items=tuple(items), scale=scale)


class TestSizeClass:
    @pytest.mark.parametrize(
        "num,scale,expected",
        [(8, 8, 0), (5, 8, 0), (4, 8, 1), (3, 8, 1), (2, 8, 2), (1, 8, 3), (1, 1, 0)],
    )
    def test_examples(self, num, scale, expected):
        assert size_class(ScaledSize(num, scale)) == expected

    @given(st.integers(1, 512), st.integers(0, 9))
    def test_defining_interval(self, num, log_scale):
        scale = 2**log_scale
        num = min(num, scale)
        c = size_class(ScaledSize(num, scale))
        s = Fraction(num, scale)
        assert Fraction(1, 2 ** (c + 1)) < s <= Fraction(1, 2**c)


class TestFirstFit:
    def test_reuses_earliest_fitting_bin(self):
        items = [Item(0, 0.0, 5, 10.0), Item(1, 0.0, 5, 10.0), Item(2, 0.0, 3, 10.0)]
        r = simulate(inst(items), FirstFitPolicy())
        # third item fits back into the first bin
        assert max(s.open_bins for s in r.segments) == 2

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 8), min_size=1, max_size=25), st.integers(0, 10**6))
    def test_never_exceeds_ffd_plus_volume_bound(self, sizes, _seed):
        items = [Item(i, 0.0, s, 1.0) for i, s in enumerate(sizes)]
        r = simulate(inst(items), FirstFitPolicy())
        used = max(s.open_bins for s in r.segments)
        # FirstFit leaves at most one bin at most half full per load level:
        # crude sanity bound, 2*ceil(volume) + 1
        total = sum(sizes)
        assert used <= 2 * (-(-total // 8)) + 1


class TestSingleClass:
    def test_no_migration_at_exact_threshold(self):
        # Good bin dropping to exactly alpha keeps its items
        alpha, f = Fraction(1, 4), Fraction(1, 2)
        items = [Item(i, 0.0, 2, 1.0 if i < 3 else 5.0) for i in range(4)]
        r = simulate(inst(items), SingleClassPolicy(alpha, f))
        assert r.ledger.unit_count == 0

    def test_drain_below_threshold(self):
        alpha, f = Fraction(1, 4), Fraction(1, 2)
        # 12 unit items: 8 fill bin one, 4 open bin two; 7 early departures
        # leave bin one at 1/8 < 1/4, so its survivor moves to bin two
        items = [Item(i, 0.0, 1, 1.0 if i < 7 else 5.0) for i in range(12)]
        r = simulate(inst(items), SingleClassPolicy(alpha, f))
        entry = r.ledger.entries[0]
        assert entry.rule == "drain"
        assert entry.time == 1.0
        assert entry.item == 7
        # a second drain fires during the final departure wave
        assert r.ledger.unit_count == 2

    def test_bad_bin_promoted_at_fill_fraction(self):
        alpha, f = Fraction(1, 4), Fraction(1, 2)
        labels = []

        def watch(engine, time):
            labels.append([(b.id, b.label) for b in engine.bins.values() if b.open])

        items = [Item(0, 0.0, 3, 2.0), Item(1, 1.0, 1, 2.0)]
        simulate(inst(items), SingleClassPolicy(alpha, f), observers=[watch])
        assert labels[0] == [(0, BAD)]  # 3/8 < 1/2 stays Bad
        assert labels[1] == [(0, GOOD)]  # 4/8 >= 1/2 promotes

    def test_arrivals_prefer_bad_bins(self):
        alpha, f = Fraction(1, 4), Fraction(1, 2)
        seen = []

        def watch(engine, time):
            seen.append({b.id: sorted(b.items) for b in engine.bins.values() if b.open})

        items = [Item(0, 0.0, 4, 9.0), Item(1, 1.0, 7, 9.0), Item(2, 2.0, 2, 1.0)]
        simulate(inst(items), SingleClassPolicy(alpha, f), observers=[watch])
        # item 2 fits in Good bin 0 but a Bad bin would win if it had room;
        # bin 1 (7/8, Bad) has no room so Good bin 0 takes it
        assert seen[2][0] == [0, 2]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            simulate(
                inst([Item(0, 0.0, 1, 1.0)]),
                SingleClassPolicy(Fraction(1, 2), Fraction(3, 4)),
            )
        with pytest.raises(ValueError):
            simulate(
                inst([Item(0, 0.0, 1, 1.0)]),
                SingleClassPolicy(Fraction(1, 4), Fraction(1, 8)),
            )


class TestMultiClass:
    def test_small_start_routes_to_junk(self):
        # one item: guess stays at 1, every class is beyond it
        r_log = []

        def watch(engine, time):
            r_log.append({b.group for b in engine.bins.values() if b.open})

        items = [Item(0, 0.0, 1, 1.0)]
        simulate(inst(items), MultiClassPolicy(Fraction(1, 4)), observers=[watch])
        assert r_log[0] == {"junk:1"}

    def test_doubling_opens_classes_and_new_junk(self):
        policy = MultiClassPolicy(Fraction(1, 4))
        items = [Item(i, float(i), 1, 10.0) for i in range(5)]
        simulate(inst(items), policy)
        # 5 concurrent items: guess doubled to 8, phases 1..4
        assert policy.rho == 8
        assert [p for _, p in policy.phase_history] == [1, 2, 3, 4]
        assert len(policy.junk_bins) == 4

    def test_class_routing_after_growth(self):
        policy = MultiClassPolicy(Fraction(1, 4))
        groups = {}

        def watch(engine, time):
            for b in engine.bins.values():
                for i in b.items:
                    groups[i] = b.group

        # grow the guess with small items, then send a half-size item
        items = [Item(i, float(i), 1, 20.0) for i in range(5)]
        items.append(Item(5, 5.0, 4, 20.0))  # class 1 < log2(8)
        items.append(Item(6, 6.0, 8, 20.0))  # class 0
        simulate(inst(items), policy, observers=[watch])
        assert groups[5] == "class:1"
        assert groups[6] == "class:0"
        assert groups[0].startswith("junk:")

    def test_phases_at(self):
        policy = MultiClassPolicy(Fraction(1, 4))
        items = [Item(i, float(i), 1, 10.0) for i in range(3)]
        simulate(inst(items), policy)
        assert policy.phases_at(0.0) == 1
        assert policy.phases_at(1.0) == 2
        assert policy.phases_at(99.0) == policy.phase


class TestSizeCost:
    def test_large_items_get_dedicated_bins(self):
        groups = {}

        def watch(engine, time):
            for b in engine.bins.values():
                for i in b.items:
                    groups[i] = b.group

        items = [Item(0, 0.0, 2, 1.0), Item(1, 0.0, 1, 1.0)]
        simulate(inst(items), SizeCostPolicy(Fraction(1, 4)), observers=[watch])
        assert groups[0] == "dedicated"  # 2/8 >= 1/4
        assert groups[1] == "shared"

    def test_dedicated_bins_are_singletons(self):
        counts = []

        def watch(engine, time):
            counts.extend(
                len(b.items)
                for b in engine.bins.values()
                if b.group == "dedicated" and b.open
            )

        items = [Item(i, 0.0, 4, 2.0) for i in range(6)]
        simulate(inst(items), SizeCostPolicy(Fraction(1, 4)), observers=[watch])
        assert counts and all(c == 1 for c in counts)


class TestDelay:
    def test_migration_times_and_rescheduling(self):
        one = Instance(items=(Item(0, 0.0, 1, 25.0),), scale=2)
        r = simulate(one, DelayPolicy(100.0), delay_cost=100.0)
        assert [e.time for e in r.ledger.entries if e.item == 0] == [10.0, 120.0]
        assert r.departures[0] == 225.0

    def test_short_item_never_migrates(self):
        one = Instance(items=(Item(0, 0.0, 1, 3.0),), scale=2)
        r = simulate(one, DelayPolicy(16.0), delay_cost=16.0)
        assert r.ledger.unit_count == 0
        assert r.departures[0] == 3.0

    def test_duration_exactly_sqrt_c_departs_first(self):
        # half-open lifetime: the departure at age sqrt(C) beats the checkpoint
        one = Instance(items=(Item(0, 0.0, 1, 4.0),), scale=2)
        r = simulate(one, DelayPolicy(16.0), delay_cost=16.0)
        assert r.ledger.unit_count == 0

    def test_decomposition_matches_firstfit_sum(self):
        instance = gen_uniform(25, 8, (1.0, 40.0), 10.0, seed=5)
        c = 100.0
        r = simulate(instance, DelayPolicy(c), delay_cost=c)
        small, big = decompose_delay_run(instance, r)
        ff_small = simulate(small, FirstFitPolicy()).total_active_time
        ff_big = simulate(big, FirstFitPolicy()).total_active_time if big.items else 0.0
        assert r.total_active_time == pytest.approx(ff_small + ff_big, rel=1e-12)
        assert mu(small) <= 10.0 + 1e-9
        if big.items:
            assert mu(big) <= 2.0 + 1e-9

    def test_decomposition_piece_bounds_single_item(self):
        one = Instance(items=(Item(0, 0.0, 1, 25.0),), scale=2)
        r = simulate(one, DelayPolicy(100.0), delay_cost=100.0)
        small, big = decompose_delay_run(one, r)
        assert [(i.arrival, i.duration) for i in small.items] == [(0.0, 10.0)]
        assert [(i.arrival, i.duration) for i in big.items] == [
            (10.0, 110.0),
            (120.0, 105.0),
        ]

    def test_rejects_delay_below_one(self):
        with pytest.raises(ValueError):
            DelayPolicy(0.5)


def test_make_policy_names():
    (alg_option,) = [p for p in cli.run.params if p.name == "alg"]
    for name, cls in ALGORITHMS.items():
        policy = make_policy(name, alpha=Fraction(1, 4), f=Fraction(1, 2), delay_cost=16.0)
        assert type(policy) is cls and policy.name == name
        assert set(cls.checks) <= set(harness.CHECKS)
        assert name in alg_option.type.choices
    with pytest.raises(ValueError):
        make_policy("nope")
