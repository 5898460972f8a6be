import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynbin.core import Instance, Item
from dynbin.engine import (
    EVENT_NAMES,
    CapacityViolation,
    Engine,
    EventKind,
    Policy,
    Segment,
    SimulationError,
    simulate,
    verify_packing,
)
from dynbin.algorithms import DelayPolicy, FirstFitPolicy, MultiClassPolicy
from dynbin.generators import gen_fig2


def inst(items, scale=4):
    return Instance(items=tuple(items), scale=scale)


class TestTotalActiveTime:
    def test_single_item(self):
        r = simulate(inst([Item(0, 1.0, 1, 3.0)]), FirstFitPolicy())
        assert r.total_active_time == 3.0

    def test_two_items_one_bin(self):
        r = simulate(
            inst([Item(0, 0.0, 2, 2.0), Item(1, 0.0, 2, 5.0)]), FirstFitPolicy()
        )
        assert r.total_active_time == 5.0

    def test_two_bins_overlap(self):
        # both size 3/4: second item forces a second bin for its lifetime
        r = simulate(
            inst([Item(0, 0.0, 3, 4.0), Item(1, 1.0, 3, 1.0)]), FirstFitPolicy()
        )
        assert r.total_active_time == 5.0

    def test_half_open_departure_frees_capacity(self):
        # departure at t=2 precedes the arrival at t=2: one bin suffices
        r = simulate(
            inst([Item(0, 0.0, 3, 2.0), Item(1, 2.0, 3, 1.0)]), FirstFitPolicy()
        )
        assert r.total_active_time == 3.0
        assert max(s.open_bins for s in r.segments) == 1


class TestSegments:
    def test_segments_partition_the_span(self):
        items = [Item(0, 0.0, 1, 2.0), Item(1, 1.0, 1, 3.0), Item(2, 2.5, 3, 1.0)]
        r = simulate(inst(items), FirstFitPolicy())
        assert r.segments[0].start == 0.0
        assert r.segments[-1].end == 4.0
        for a, b in zip(r.segments, r.segments[1:]):
            assert a.end == b.start
        assert sum(s.open_bins * (s.end - s.start) for s in r.segments) == pytest.approx(
            r.total_active_time
        )


class TestDelayedDepartures:
    def test_migration_extends_lifetime(self):
        # d=25, C=100: migrations at ages 10 and 120, departure at 225
        one = Instance(items=(Item(0, 0.0, 1, 25.0),), scale=2)
        r = simulate(one, DelayPolicy(100.0), delay_cost=100.0)
        assert r.departures[0] == 225.0
        assert r.migrations_per_item[0] == 2
        assert [e.time for e in r.ledger.entries if e.item == 0] == [10.0, 120.0]
        assert r.total_active_time == 225.0

    def test_policy_delay_cost_must_match_engine(self):
        one = Instance(items=(Item(0, 0.0, 1, 1.0),), scale=2)
        with pytest.raises(SimulationError):
            simulate(one, DelayPolicy(4.0), delay_cost=9.0)


class TestAdversary:
    def test_resolution_happens_after_same_time_arrivals(self):
        instance, resolver = gen_fig2(3, 5.0)
        r = simulate(instance, FirstFitPolicy(), adversary=resolver)
        # one long item per bin: 3 bins stay open for mu
        assert r.total_active_time == 15.0
        assert sorted(r.resolved_durations.values()).count(5.0) == 3

    def test_deferred_without_adversary_rejected(self):
        instance, _ = gen_fig2(2, 3.0)
        with pytest.raises(SimulationError):
            simulate(instance, FirstFitPolicy())


class TestEngineGuards:
    def test_capacity_violation(self):
        class Stuffer(Policy):
            def bind(self, engine):
                super().bind(engine)
                self.b = None

            def on_arrival(self, item_id, size_num, time):
                if self.b is None:
                    self.b = self.engine.open_bin("Good", "g")
                self.engine.place(item_id, self.b.id)

        with pytest.raises(CapacityViolation):
            simulate(inst([Item(0, 0.0, 3, 1.0), Item(1, 0.0, 3, 1.0)]), Stuffer())

    def test_policy_must_place(self):
        class Lazy(Policy):
            def on_arrival(self, item_id, size_num, time):
                pass

        with pytest.raises(SimulationError):
            simulate(inst([Item(0, 0.0, 1, 1.0)]), Lazy())

    def test_good_bins_never_become_bad(self):
        class Flipper(Policy):
            def on_arrival(self, item_id, size_num, time):
                b = self.engine.open_bin("Good", "g")
                self.engine.place(item_id, b.id)
                self.engine.set_label(b.id, "Bad")

        with pytest.raises(SimulationError):
            simulate(inst([Item(0, 0.0, 1, 1.0)]), Flipper())


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        instance, resolver = gen_fig2(4, 10.0)
        a = simulate(instance, FirstFitPolicy(), adversary=resolver)
        b = simulate(instance, FirstFitPolicy(), adversary=resolver)
        assert a.to_json() == b.to_json()
        assert a.trace == b.trace


class TestVerifyPacking:
    def good_run(self):
        instance, resolver = gen_fig2(3, 5.0)
        return simulate(instance, FirstFitPolicy(), adversary=resolver)

    def test_clean_trace_passes(self):
        assert verify_packing(self.good_run()) is None

    def test_detects_overflow(self):
        r = self.good_run()
        r = copy.deepcopy(r)
        for i, act in enumerate(r.actions):
            if act[0] == "place":
                _, item, bin_id, _ = act
                r.actions[i] = ("place", item, bin_id, r.scale + 1)
                break
        msg = verify_packing(r)
        assert msg and "overflow" in msg

    def test_detects_wrong_bin_departure(self):
        r = copy.deepcopy(self.good_run())
        for i, act in enumerate(r.actions):
            if act[0] == "depart":
                _, item, bin_id, size = act
                r.actions[i] = ("depart", item, bin_id + 999, size)
                msg = verify_packing(r)
                assert msg and "wrong bin" in msg
                return
        pytest.fail("no departure in trace")

    def test_detects_double_place(self):
        r = copy.deepcopy(self.good_run())
        start = 0
        for k, (_, _, _, end) in enumerate(r.events):
            for act in r.actions[start:end]:
                if act[0] == "place":
                    # a copy of the record at the end of its event's actions
                    r.actions.insert(end, act)
                    r.events[k:] = [(t, kind, item, e + 1) for t, kind, item, e in r.events[k:]]
                    msg = verify_packing(r)
                    assert msg and "placed twice" in msg
                    return
            start = end

    def test_detects_migration_from_wrong_bin(self):
        # the item moves from the small pool to the big one at t = sqrt(C)
        r = simulate(inst([Item(0, 0.0, 1, 5.0), Item(1, 1.0, 2, 1.0)]), DelayPolicy(4.0),
                     delay_cost=4.0)
        i = next(i for i, act in enumerate(r.actions) if act[0] == "migrate")
        _, item, src, dst, size = r.actions[i]
        r.actions[i] = ("migrate", item, src + 999, dst, size)
        assert verify_packing(r) == "t=2.0: migration of item 0 from wrong bin"

    def test_detects_good_bin_relabeled_bad(self):
        instance, resolver = gen_fig2(3, 5.0)
        r = simulate(instance, MultiClassPolicy(Fraction(1, 4)), adversary=resolver)
        # the first Bad -> Good relabel, turned around
        i = next(i for i, act in enumerate(r.actions) if act[0] == "label" and act[2] == "Bad")
        _, bin_id, old, new = r.actions[i]
        r.actions[i] = ("label", bin_id, new, old)
        assert verify_packing(r) == f"t=0.0: bin {bin_id} relabeled Good -> Bad"

    def test_detects_items_left_placed(self):
        r = self.good_run()
        i = max(i for i, act in enumerate(r.actions) if act[0] == "depart")
        del r.actions[i]
        r.events[:] = [(t, kind, item, e - 1 if e > i else e) for t, kind, item, e in r.events]
        assert verify_packing(r) == "items left placed at end of trace"


def naive_first_fit(instance):
    """FirstFit in O(n^2) on a plain list of bins in opening order, each
    [load, items]; a bin closes for good when it empties. Returns the
    segments, the total active time and the (item, bin, size) of every
    placement, in the engine's event order."""
    events = sorted(
        [(it.arrival + it.duration, 0, it.id) for it in instance.items]
        + [(it.arrival, 2, it.id) for it in instance.items]
    )
    sizes = {it.id: it.size_num for it in instance.items}
    bins: list[list] = []
    closed: set[int] = set()
    segments, places = [], []
    total, prev = 0.0, None
    for time, kind, item in events:
        open_bins = len(bins) - len(closed)
        if prev is None:
            prev = time
        elif time > prev:
            total += open_bins * (time - prev)
            segments.append(Segment(prev, time, open_bins))
            prev = time
        size = sizes[item]
        if kind == 2:
            for b, (load, _) in enumerate(bins):
                if b not in closed and load + size <= instance.scale:
                    break
            else:
                b = len(bins)
                bins.append([0, set()])
            bins[b][0] += size
            bins[b][1].add(item)
            places.append((item, b, size))
        else:
            b = next(b for b, (_, items) in enumerate(bins) if item in items)
            bins[b][0] -= size
            bins[b][1].discard(item)
            if bins[b][0] == 0:
                closed.add(b)
    return segments, total, places


class TreesOnlyEngine(Engine):
    """Searches every group through its first-fit trees, however few
    bins are open."""

    SCAN_LIMIT = 0


@pytest.mark.parametrize("engine", [Engine, TreesOnlyEngine])
@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda scale: st.tuples(
            st.just(scale),
            st.lists(
                st.tuples(st.integers(0, 20), st.integers(1, 20), st.integers(1, scale)),
                min_size=1,
                max_size=60,
            ),
        )
    )
)
def test_first_fit_matches_naive_simulator(engine, drawn):
    scale, rows = drawn
    items = tuple(Item(i, float(a), s, float(d)) for i, (a, d, s) in enumerate(rows))
    instance = inst(items, scale)
    result = engine(instance, FirstFitPolicy()).run()
    segments, total, places = naive_first_fit(instance)
    assert result.segments == segments
    assert result.total_active_time == total
    assert [act[1:] for act in result.actions if act[0] == "place"] == places


def bounded_queue(engine, time):
    """The queue holds the departures of live items, and at most one
    more entry: the adversary's resolve event."""
    assert len(engine._heap) <= len(engine.live) + 1


@pytest.mark.parametrize(
    "make_policy",
    [FirstFitPolicy, lambda: MultiClassPolicy(Fraction(1, 4))],
    ids=["firstfit", "alg2"],
)
@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(1, 3), st.integers(1, 8)),
        min_size=1,
        max_size=40,
    )
)
def test_events_follow_time_kind_id_under_ties(make_policy, rows):
    # integer grid: many arrivals and departures share a time
    items = tuple(Item(i, float(a), s, float(d)) for i, (a, d, s) in enumerate(rows))
    result = Engine(inst(items, 8), make_policy(), observers=[bounded_queue]).run()
    expected = sorted(
        [(it.arrival, EventKind.ARRIVAL, it.id) for it in items]
        + [(it.arrival + it.duration, EventKind.DEPARTURE, it.id) for it in items]
    )
    assert [(t, kind, i) for t, kind, i, _ in result.events if t is not None] == [
        (t, EVENT_NAMES[kind], i) for t, kind, i in expected
    ]


def test_queue_holds_only_live_departures_through_an_adversary():
    instance, adversary = gen_fig2(4, 10.0)
    simulate(instance, FirstFitPolicy(), adversary=adversary, observers=[bounded_queue])
