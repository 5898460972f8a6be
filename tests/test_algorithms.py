import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynbin import cli, harness
from dynbin.core import Instance, Item
from dynbin.engine import ACTION_FIELDS, BAD, GOOD, SimulationError, simulate
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
from dynbin.generators import gen_uniform
from references import mu


def inst(items, scale=8):
    return Instance(items=tuple(items), scale=scale)


class TestSizeClass:
    @pytest.mark.parametrize(
        "num,scale,expected",
        [(8, 8, 0), (5, 8, 0), (4, 8, 1), (3, 8, 1), (2, 8, 2), (1, 8, 3), (1, 1, 0)],
    )
    def test_examples(self, num, scale, expected):
        assert size_class(num, scale) == expected

    @given(
        st.integers(1, 4096).flatmap(
            lambda scale: st.tuples(st.integers(1, scale), st.just(scale))
        )
    )
    def test_defining_interval(self, size):
        num, scale = size
        c = size_class(num, scale)
        s = Fraction(num, scale)
        assert Fraction(1, 2 ** (c + 1)) < s <= Fraction(1, 2**c)

    def test_every_scale_at_the_class_boundaries(self):
        # scale >> k is the largest size of class k and (scale >> k) + 1 the
        # smallest of class k - 1, on every scale, power of two or not
        # (delaylb draws scale 2 sqrt(C), 6 at C = 9)
        for scale in range(1, 4097):
            for k in range(scale.bit_length() + 1):
                for num in (scale >> k, (scale >> k) + 1):
                    if 0 < num <= scale:
                        c = size_class(num, scale)
                        assert num << c <= scale < num << (c + 1), (num, scale)

    @pytest.mark.parametrize("num,scale", [(0, 8), (-1, 8), (9, 8), (2, 1)])
    def test_rejects_sizes_outside_the_bin(self, num, scale):
        with pytest.raises(ValueError):
            size_class(num, scale)


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

    def test_a_drain_keeps_the_target_order_it_starts_with(self):
        # a drain lists its targets once: Bad bins, then Good bins, then the
        # bins it opens. Bin 0's drain sends item 6 to Bad bin 3, which turns
        # Good, and item 8 follows it there; a first fit per placement (Bad,
        # then Good) would send item 8 to Good bin 2, where it fits too. Which
        # order the paper intends is open.
        instance = gen_uniform(10, 16, (1.0, 20.0), 1.0, 1554)
        drain_at = 4.230452854396675
        after = {}

        def watch(engine, time):
            if time == drain_at:
                after.update((b.id, (b.label, b.load)) for b in engine.bins_in("shared"))

        r = simulate(instance, SizeCostPolicy(Fraction(2, 5)), observers=[watch])
        moves = [(e.item, e.source, e.destination) for e in r.ledger.entries if e.time == drain_at]
        assert moves == [(6, 0, 3), (8, 0, 3)]
        assert after == {2: (GOOD, 11), 3: (GOOD, 11)}
        assert r.ledger.unit_count == 7

    def test_bad_bin_promoted_at_fill_fraction(self):
        alpha, f = Fraction(1, 4), Fraction(1, 2)
        labels = []

        def watch(engine, time):
            labels.append([(b.id, b.label) for b in engine.bins.values() if b.load > 0])

        items = [Item(0, 0.0, 3, 2.0), Item(1, 1.0, 1, 2.0)]
        simulate(inst(items), SingleClassPolicy(alpha, f), observers=[watch])
        assert labels[0] == [(0, BAD)]  # 3/8 < 1/2 stays Bad
        assert labels[1] == [(0, GOOD)]  # 4/8 >= 1/2 promotes

    def test_arrivals_prefer_bad_bins(self):
        alpha, f = Fraction(1, 4), Fraction(1, 2)
        seen = []

        def watch(engine, time):
            seen.append({b.id: sorted(b.items) for b in engine.bins.values() if b.load > 0})

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
            r_log.append({b.group for b in engine.bins.values() if b.load > 0})

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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]), max_size=8),
        st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 1.75, 2.5, 4.0, 9.0]), min_size=1),
    )
    def test_phases_at_matches_a_linear_scan(self, starts, times):
        # a burst doubles the guess more than once at one time, so several
        # phases may begin at one start
        policy = MultiClassPolicy(Fraction(1, 4))
        policy.phase_history = [(0.0, 1)] + [
            (start, phase) for phase, start in enumerate(sorted(starts), start=2)
        ]
        for time in times:
            count = 1
            for start, phase in policy.phase_history:
                if start <= time:
                    count = phase
            assert policy.phases_at(time) == count

    @pytest.mark.parametrize("c, good_at", [(0, 32), (1, 32), (2, 48), (3, 56)])
    def test_class_bad_bin_turns_good_exactly_at_f_c(self, c, good_at):
        # f_0 = 1/2 and f_c = 1 - 2^-c, times scale 64. Real class-0 items
        # exceed half a bin, so the policy below sends every item to the
        # class-c rules whatever its size: a Bad bin at f_c * scale - 1
        # stays Bad, and one more unit turns it Good; a bin whose first
        # item is f_c * scale opens Good, with no relabel
        class OneClass(MultiClassPolicy):
            def bind(self, engine):
                super().bind(engine)
                for k in range(1, c + 1):
                    self._start_class(k)

            def on_arrival(self, item_id, size_num, time):
                self.classes[c].place(item_id, size_num)

        labels = []

        def watch(engine, time):
            labels.append([b.label for b in engine.bins.values() if b.group == f"class:{c}"])

        items = [Item(0, 0.0, good_at - 1, 2.0), Item(1, 1.0, 1, 2.0), Item(2, 4.0, good_at, 1.0)]
        r = simulate(inst(items, scale=64), OneClass(Fraction(1, 4)), observers=[watch])
        assert labels[:2] == [[BAD], [GOOD]]
        assert labels[4] == [GOOD]  # after item 2 arrives into an empty group
        (arrival,) = [e for e in r.trace if e["time"] == 4.0]
        assert [a["action"] for a in arrival["actions"]] == ["open", "place"]
        assert arrival["actions"][0]["label"] == GOOD


class TestSizeCost:
    @pytest.mark.parametrize(
        "alpha, scale", [(Fraction(1, 4), 12), (Fraction(1, 3), 9), (Fraction(2, 5), 10)]
    )
    def test_dedicated_exactly_at_alpha(self, alpha, scale):
        # an item of size alpha * scale gets a dedicated bin, one a grid
        # step below joins the shared bins
        groups = {}

        def watch(engine, time):
            for b in engine.bins.values():
                for i in b.items:
                    groups[i] = b.group

        at = int(alpha * scale)
        items = [Item(0, 0.0, at, 1.0), Item(1, 0.0, at - 1, 1.0)]
        simulate(inst(items, scale), SizeCostPolicy(alpha), observers=[watch])
        assert groups == {0: "dedicated", 1: "shared"}

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
                if b.group == "dedicated" and b.load > 0
            )

        items = [Item(i, 0.0, 4, 2.0) for i in range(6)]
        simulate(inst(items), SizeCostPolicy(Fraction(1, 4)), observers=[watch])
        assert counts and all(c == 1 for c in counts)


def alg2_f(group):
    """f_c of alg2's class c: 1/2 for class 0, else 1 - 2^-c; None for a
    junk bin."""
    if not group.startswith("class:"):
        return None
    c = int(group[len("class:"):])
    return 1 - Fraction(1, 2**c) if c else Fraction(1, 2)


# id -> (the policy, f of a group's bins (None where no rule opens them),
# and for alg1 the f whose reach its items are kept within)
ONE_BAD_BIN = {
    **{
        f"alg1 f={f}": (
            lambda f=f: SingleClassPolicy(Fraction(1, 4), f), lambda group, f=f: f, f
        )
        for f in (Fraction(1, 2), Fraction(3, 4), Fraction(1))
    },
    **{
        f"alg2 alpha={alpha}": (lambda alpha=alpha: MultiClassPolicy(alpha), alg2_f, None)
        for alpha in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5))
    },
    "sizecost": (
        lambda: SizeCostPolicy(Fraction(1, 4)),
        lambda group: Fraction(3, 4) if group == "shared" else None,
        None,
    ),
}


def reach(scale, f):
    """The largest item that fits every bin below f of the bin, the most
    a Bad bin of alg1 at f can hold."""
    return scale + 1 - math.ceil(f * scale)


def within_reach(instance, f):
    """The instance with each size that can give alg1 at f a second Bad
    bin, one above reach(scale, f) and below f, cut to reach(scale, f).
    Every size is within reach at f = 1/2, and so is size class c at
    alg2's f_c; beyond reach alg1 keeps no bound of one Bad bin."""
    scale, top = instance.scale, reach(instance.scale, f)
    items = tuple(
        it if it.size_num <= top or it.size_num >= f * scale else it._replace(size_num=top)
        for it in instance.items
    )
    return Instance(items=items, scale=scale)


def walk_records(result, f_of):
    """Reads the records one at a time. After each, every group holds at
    most one Bad bin and class 0 none; each bin f_of gives an f opens
    Good if the item that first fills it reaches f, else Bad. Returns the
    number of bins opened Good and of bins a drain opened."""
    actions, scale = result.actions, result.scale
    bins, bad, unfilled = {}, {}, {}
    opened_good = drain_opened = 0
    i = 0
    while i < len(actions):
        kind = actions[i]
        n = 1 + len(ACTION_FIELDS[kind])
        record = actions[i : i + n]
        if kind == "open":
            _, b, label, group = record
            bins[b] = [group, label]
            if f_of(group) is not None:
                unfilled[b] = label
            if label == BAD:
                bad[group] = bad.get(group, 0) + 1
        elif kind == "close":
            group, label = bins.pop(record[1])
            if label == BAD:
                bad[group] -= 1
        elif kind == "label":
            _, b, old, new = record
            bins[b][1] = new
            group = bins[b][0]
            bad[group] = bad.get(group, 0) + (new == BAD) - (old == BAD)
        elif kind in ("place", "migrate"):
            b, size = record[-2], record[-1]
            label = unfilled.pop(b, None)
            if label is not None:
                f = f_of(bins[b][0])
                assert label == (GOOD if size >= f * scale else BAD), f"record at {i}"
                opened_good += label == GOOD
                drain_opened += kind == "migrate"
        for group, count in bad.items():
            assert count <= 1, f"{count} Bad bins in {group} after the record at {i}"
        assert not bad.get("class:0"), f"a Bad bin in class 0 after the record at {i}"
        i += n
    return opened_good, drain_opened


@st.composite
def small_instances(draw, f):
    """Up to 40 items on a grid of 2 to 16, within alg1's reach at f if
    f is given."""
    scale = draw(st.integers(2, 16))
    sizes = range(1, scale + 1)
    if f is not None:
        sizes = [s for s in sizes if s <= reach(scale, f) or s >= f * scale]
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(1, 4), st.sampled_from(sizes)),
            min_size=1,
            max_size=40,
        )
    )
    items = tuple(Item(i, float(a), s, float(d)) for i, (a, d, s) in enumerate(rows))
    return Instance(items=items, scale=scale)


class TestOneBadBinAtEveryRecord:
    """A single-class bin opens Good when its first item reaches f, so no
    record, not only no event's end, leaves a group two Bad bins or class
    0 one."""

    @pytest.mark.parametrize("name", sorted(ONE_BAD_BIN))
    def test_on_the_acceptance_shapes(self, name):
        make, f_of, f = ONE_BAD_BIN[name]
        instances = [gen_uniform(40, 16, (1.0, 2.0), 20.0, seed) for seed in range(5)]
        # about 40 live items over 600 arrivals, so bins close and drain
        instances.append(gen_uniform(600, 16, (1.0, 2.0), 600 * 1.5 / 40, 3))
        opened_good = drain_opened = 0
        for instance in instances:
            if f is not None:
                instance = within_reach(instance, f)
            good, drained = walk_records(simulate(instance, make()), f_of)
            opened_good += good
            drain_opened += drained
        # sizecost's shared items are below alpha < f, so it opens none Good;
        # alg2's drains at alpha = 1/10 find a target for every item here
        assert (opened_good > 0) == (name != "sizecost")
        assert (drain_opened > 0) == (name != "alg2 alpha=1/10")

    @pytest.mark.parametrize("name", sorted(ONE_BAD_BIN))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_on_drawn_instances(self, name, data):
        make, f_of, f = ONE_BAD_BIN[name]
        walk_records(simulate(data.draw(small_instances(f)), make()), f_of)

    def test_a_drain_opens_a_bin_for_its_resident(self):
        # alpha = 1/4, f = 1/2 at scale 8: bin 0 holds items 0, 1 and 4,
        # bin 1 items 2 and 3, both full. Items 4 and 0 leave bin 0 with
        # item 1 alone, below alpha, and full bin 1 cannot take it, so the
        # drain opens bin 2. A drained resident is below alpha < f, so the
        # bin a drain opens is Bad.
        items = [
            Item(0, 0.0, 4, 2.0),
            Item(1, 0.0, 1, 10.0),
            Item(2, 0.0, 4, 10.0),
            Item(3, 0.0, 4, 10.0),
            Item(4, 0.0, 3, 1.0),
        ]
        r = simulate(inst(items), SingleClassPolicy(Fraction(1, 4), Fraction(1, 2)))
        opens = [a["label"] for e in r.trace if e["time"] == 0.0 for a in e["actions"] if a["action"] == "open"]
        assert opens == [GOOD, GOOD]  # items 0 and 2 reach f alone
        (drain,) = [e for e in r.trace if e["time"] == 2.0]
        assert [a["action"] for a in drain["actions"]] == ["depart", "open", "close", "migrate"]
        assert drain["actions"][1] == {"action": "open", "bin": 2, "label": BAD, "group": "class"}
        assert walk_records(r, lambda group: Fraction(1, 2)) == (2, 1)


def stop_after_200_events():
    """An observer that fails a run still going after 200 events."""
    events = 0

    def observer(engine, time):
        nonlocal events
        events += 1
        if events > 200:
            raise AssertionError(f"still running at t={time} after 200 events")

    return observer


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

    def test_a_checkpoint_that_rounds_to_its_own_time_ends_the_run(self):
        # floats 16 apart at 2^56: t + sqrt(C) rounds to t, for C = 64 by
        # rounding half to even, so the item would migrate at its arrival
        one = Instance(items=(Item(0, 2.0**56, 1, 100.0),), scale=2)
        for c in (1.0, 64.0):
            with pytest.raises(SimulationError) as stop:
                simulate(one, DelayPolicy(c), delay_cost=c, observers=[stop_after_200_events()])
            assert str(stop.value) == f"t={2.0**56}: the first checkpoint, t + sqrt(C), rounds to t"

    def test_a_checkpoint_that_keeps_pace_with_the_departure_ends_the_run(self):
        # floats 16 apart past 2^56, C = 64: the first checkpoint, t + 8,
        # rounds to t + 16, and from there t + C + sqrt(C) = t + 72 rounds to
        # t + 64, as far as a migration moves the departure
        t = 2.0**56 + 16
        one = Instance(items=(Item(0, t, 1, 100.0),), scale=2)
        with pytest.raises(SimulationError) as stop:
            simulate(one, DelayPolicy(64.0), delay_cost=64.0,
                     observers=[stop_after_200_events()])
        assert str(stop.value) == (
            f"t={t + 16}: the next checkpoint, t + C + sqrt(C), rounds to at most"
            " t + C, so the item would never depart"
        )


def test_make_policy_names():
    (alg_option,) = [p for p in cli.run.params if p.name == "alg"]
    for name, cls in ALGORITHMS.items():
        policy = make_policy(name, alpha=Fraction(1, 4), f=Fraction(1, 2), delay_cost=16.0)
        assert type(policy) is cls and policy.name == name
        assert set(cls.checks) <= set(harness.CHECKS)
        assert name in alg_option.type.choices
    with pytest.raises(ValueError):
        make_policy("nope")
