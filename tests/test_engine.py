import copy
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynbin.core import Instance, Item, LongestPerBinResolver
from dynbin.engine import (
    ACTION_FIELDS,
    BAD,
    EVENT_NAMES,
    GOOD,
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
from dynbin.generators import gen_basic_lb, gen_fig2, gen_uniform
from dynbin.harness import ExperimentConfig, checked_run


def inst(items, scale=4):
    return Instance(items=tuple(items), scale=scale)


def action_records(actions):
    """(index, record) of each action in a flat action list, the record a
    tuple of the action's name and fields."""
    i = 0
    while i < len(actions):
        n = 1 + len(ACTION_FIELDS[actions[i]])
        yield i, tuple(actions[i : i + n])
        i += n


def event_records(events):
    """The (time, kind, item, count) of each event in a flat event list."""
    return [tuple(events[k : k + 4]) for k in range(0, len(events), 4)]


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
        r = simulate(gen_fig2(3, 5.0), FirstFitPolicy())
        # one long item per bin: 3 bins stay open for mu
        assert r.total_active_time == 15.0
        assert sorted(r.resolved_durations.values()).count(5.0) == 3

    def test_deferred_without_adversary_rejected(self):
        instance = replace(gen_fig2(2, 3.0), adversary=None)
        message = "^instance has deferred durations but no adversary$"
        with pytest.raises(SimulationError, match=message):
            simulate(instance, FirstFitPolicy())

    @pytest.mark.parametrize("mu", [-1.0, 0.0, float("nan")])
    def test_nonpositive_resolved_duration_rejected(self, mu):
        # NaN fails every comparison, and a NaN departure never leaves the queue
        header = LongestPerBinResolver(mu, 1).header()
        instance = replace(gen_fig2(2, 3.0), adversary=header)
        with pytest.raises(SimulationError, match="nonpositive duration"):
            simulate(instance, FirstFitPolicy())

    def test_infinite_resolved_duration_rejected(self):
        # validate refuses an infinite duration; an adversary may not assign one
        header = LongestPerBinResolver(float("inf"), 1).header()
        instance = replace(gen_fig2(2, 3.0), adversary=header)
        with pytest.raises(SimulationError, match="^adversary assigned infinite duration$"):
            simulate(instance, FirstFitPolicy())

    @pytest.mark.parametrize(
        "header",
        [
            {"name": "shortest-per-bin", "mu": 3.0, "long_count": 2},
            {"name": "longest-per-bin", "long_count": 2},
            {"name": "longest-per-bin", "mu": 3.0},
            {"name": "longest-per-bin", "mu": "big", "long_count": 2},
            5,
        ],
        ids=["unknown name", "no mu", "no long_count", "mu not a number", "not an object"],
    )
    def test_a_header_the_engine_cannot_read_is_one_error(self, header):
        # read_jsonl refuses such a header in a file; built in code, the
        # engine refuses it before the run, from simulate and checked_run alike
        instance = replace(gen_fig2(2, 3.0), adversary=header)
        message = f"^adversary: expected .*, got {re.escape(repr(header))}$"
        with pytest.raises(SimulationError, match=message):
            simulate(instance, FirstFitPolicy())
        generator = {"family": "fig2", "k": 2, "mu": 3.0}
        config = ExperimentConfig(algorithm="firstfit", generator=generator)
        with pytest.raises(SimulationError, match=message):
            checked_run(config, instance)


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

    def test_a_migration_must_end_in_the_event_that_began_it(self):
        # item 0 detached while item 1 arrives; it used to stay staged
        # until its departure found it in no bin, a raw KeyError
        class Abandoner(Policy):
            def on_arrival(self, item_id, size_num, time):
                self.engine.place_first_fit(item_id, "g", (GOOD,), GOOD)
                if item_id == 1:
                    self.engine.begin_migration(0)

        instance = inst([Item(0, 0.0, 1, 2.0), Item(1, 1.0, 1, 2.0)])
        with pytest.raises(
            SimulationError,
            match=r"^t=1\.0: the migration of item 0 was begun and not completed"
            " in the same event$",
        ):
            simulate(instance, Abandoner())


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        instance = gen_fig2(4, 10.0)
        a = simulate(instance, FirstFitPolicy())
        b = simulate(instance, FirstFitPolicy())
        assert a.to_json() == b.to_json()
        assert a.trace == b.trace


class TestVerifyPacking:
    def good_run(self):
        return simulate(gen_fig2(3, 5.0), FirstFitPolicy())

    def first(self, r, action):
        """The index in r.actions of the first record of the action."""
        return next(i for i, act in action_records(r.actions) if act[0] == action)

    def test_clean_trace_passes(self):
        assert verify_packing(self.good_run()) is None

    def test_detects_overflow(self):
        r = copy.deepcopy(self.good_run())
        r.actions[self.first(r, "place") + 3] = r.scale + 1
        msg = verify_packing(r)
        assert msg and "overflow" in msg

    def test_detects_wrong_bin_departure(self):
        r = copy.deepcopy(self.good_run())
        r.actions[self.first(r, "depart") + 2] += 999
        msg = verify_packing(r)
        assert msg and "wrong bin" in msg

    def test_detects_double_place(self):
        r = copy.deepcopy(self.good_run())
        i = self.first(r, "place")
        # a copy of the record at the end of its event's actions
        end = 0
        for k in range(3, len(r.events), 4):
            end += r.events[k]
            if end > i:
                break
        r.actions[end:end] = r.actions[i : i + 4]
        r.events[k] += 4
        msg = verify_packing(r)
        assert msg and "placed twice" in msg

    def test_detects_migration_from_wrong_bin(self):
        # the item moves from the small pool to the big one at t = sqrt(C)
        r = simulate(inst([Item(0, 0.0, 1, 5.0), Item(1, 1.0, 2, 1.0)]), DelayPolicy(4.0),
                     delay_cost=4.0)
        r.actions[self.first(r, "migrate") + 2] += 999
        assert verify_packing(r) == "t=2.0: migration of item 0 from wrong bin"

    def test_detects_good_bin_relabeled_bad(self):
        r = simulate(gen_fig2(3, 5.0), MultiClassPolicy(Fraction(1, 4)))
        # the first Bad -> Good relabel, turned around
        i = next(
            i for i, act in action_records(r.actions) if act[0] == "label" and act[2] == "Bad"
        )
        bin_id = r.actions[i + 1]
        r.actions[i + 2], r.actions[i + 3] = r.actions[i + 3], r.actions[i + 2]
        assert verify_packing(r) == f"t=0.0: bin {bin_id} relabeled Good -> Bad"

    def test_detects_items_left_placed(self):
        r = self.good_run()
        i = max(i for i, act in action_records(r.actions) if act[0] == "depart")
        # the last departure, and the close of the bin it emptied
        assert r.actions[i + 4 :] == ["close", r.actions[i + 2]]
        del r.actions[i:]
        # each event keeps only the actions before i
        start = 0
        for k in range(3, len(r.events), 4):
            count = r.events[k]
            r.events[k] = max(0, min(count, i - start))
            start += count
        assert verify_packing(r) == "items left placed at end of trace"

    def test_detects_place_in_a_never_opened_bin(self):
        r = self.good_run()
        i = self.first(r, "place")
        r.actions[i + 2] = 10**6
        assert verify_packing(r) == (
            f"t=0.0: item {r.actions[i + 1]} placed in bin 1000000, which is not open"
        )

    def test_detects_place_in_a_closed_bin(self):
        # bin 0 closes at t=1; item 1 goes to a new bin 1 at t=2
        r = simulate(inst([Item(0, 0.0, 3, 1.0), Item(1, 2.0, 3, 1.0)]), FirstFitPolicy())
        i = max(i for i, act in action_records(r.actions) if act[0] == "place")
        assert r.actions[i : i + 4] == ["place", 1, 1, 3]
        r.actions[i + 2] = 0
        assert verify_packing(r) == "t=2.0: item 1 placed in bin 0, which is not open"

    def test_a_migration_into_its_own_full_bin_is_clean(self):
        class Shuffle(Policy):
            """Fills one bin, then moves the first item out and back in."""

            def on_arrival(self, item_id, size_num, time):
                b = self.engine.first_fit("g", (GOOD,), size_num) or self.engine.open_bin(GOOD, "g")
                self.engine.place(item_id, b.id)
                if item_id == 1:
                    self.engine.migrate(0, b.id, "shuffle", "g", time)

        r = simulate(inst([Item(0, 0.0, 2, 2.0), Item(1, 1.0, 2, 2.0)]), Shuffle())
        assert ["migrate", 0, 0, 0, 2] == r.actions[self.first(r, "migrate") :][:5]
        assert verify_packing(r) is None

    def test_an_unknown_action_ends_its_event(self):
        r = self.good_run()
        r.actions[self.first(r, "open")] = "bogus"
        assert verify_packing(r) == "t=0.0: unknown action 'bogus'"

    @pytest.mark.parametrize(
        "record, problem",
        [
            (("close", 0), "bin 0 closed, but it is not open"),
            (("label", 0, "Good", "Junk"), "bin 0 relabeled, but it is not open"),
        ],
    )
    def test_detects_a_record_naming_a_bin_closed_in_an_earlier_event(self, record, problem):
        r = simulate(inst([Item(0, 0.0, 3, 1.0), Item(1, 2.0, 3, 1.0)]), FirstFitPolicy())
        # appended to the last event, the departure at t=3
        r.actions += record
        r.events[-1] += len(record)
        assert verify_packing(r) == f"t=3.0: {problem}"


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
    assert [act[1:] for _, act in action_records(result.actions) if act[0] == "place"] == places


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
    assert [(t, kind, i) for t, kind, i, _ in event_records(result.events) if t is not None] == [
        (t, EVENT_NAMES[kind], i) for t, kind, i in expected
    ]


@pytest.mark.parametrize("deferred", [False, True], ids=["durations", "deferred"])
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_arrivals_come_in_arrival_then_id_order_however_listed(deferred, data):
    # few arrival times, so most arrivals tie; the items are listed in a
    # drawn order, not by id, and under `deferred` some wait for the
    # fig2 header's adversary
    rows = data.draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 3), st.integers(1, 8), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    items = []
    for i in data.draw(st.permutations(range(len(rows)))):
        a, d, s, lazy = rows[i]
        items.append(Item(i, float(a), s, None if deferred and lazy else float(d)))
    instance = Instance(items=tuple(items), scale=8)
    if any(it.duration is None for it in items):
        instance = replace(instance, adversary=gen_fig2(4, 10.0).adversary)
    result = simulate(instance, FirstFitPolicy())
    assert [(t, i) for t, kind, i, _ in event_records(result.events) if kind == "ARRIVAL"] == [
        (it.arrival, it.id) for it in sorted(items, key=lambda it: (it.arrival, it.id))
    ]


def test_queue_holds_only_live_departures_through_an_adversary():
    simulate(gen_fig2(4, 10.0), FirstFitPolicy(), observers=[bounded_queue])


def test_the_heap_holds_one_departure_per_live_item_under_delays():
    # more than a thousand migrations each move a departure later, and
    # the heap still holds at most one departure per live item
    def watch(engine, time):
        departures = sum(1 for _, kind, _ in engine._heap if kind == EventKind.DEPARTURE)
        assert departures <= len(engine.live)

    instance = gen_uniform(300, 16, (1.0, 60.0), 30.0, 1)
    result = simulate(instance, DelayPolicy(4.0), delay_cost=4.0, observers=[watch])
    assert sum(result.migrations_per_item.values()) > 1000


class Revisit(Policy):
    """Places each item in a bin of its own, and at the second arrival
    makes one call naming the first item's bin, which closed at t=1."""

    def __init__(self, call):
        self.call = call

    def on_arrival(self, item_id, size_num, time):
        b = self.engine.open_bin(GOOD, "g")
        if item_id == 1:
            self.call(self.engine, 0, item_id)
        self.engine.place(item_id, b.id)


@pytest.mark.parametrize(
    "call",
    [
        lambda engine, bin_id, item_id: engine.bin(bin_id),
        lambda engine, bin_id, item_id: engine.set_label(bin_id, BAD),
        lambda engine, bin_id, item_id: engine.close_bin(bin_id),
        lambda engine, bin_id, item_id: engine.place(item_id, bin_id),
    ],
    ids=["bin", "set_label", "close_bin", "place"],
)
def test_a_call_naming_a_bin_closed_in_an_earlier_event_is_refused(call):
    instance = inst([Item(0, 0.0, 1, 1.0), Item(1, 2.0, 1, 1.0)])
    with pytest.raises(SimulationError, match="^bin 0 is closed$"):
        simulate(instance, Revisit(call))
    with pytest.raises(SimulationError, match="^no bin 7$"):
        simulate(instance, Revisit(lambda engine, bin_id, item_id: call(engine, 7, item_id)))


@pytest.mark.parametrize(
    "make_instance, make_policy, delay_cost",
    [
        (lambda: gen_uniform(200, 16, (1.0, 8.0), 20.0, 1), FirstFitPolicy, 0.0),
        (lambda: gen_uniform(200, 16, (1.0, 8.0), 20.0, 1),
         lambda: MultiClassPolicy(Fraction(1, 4)), 0.0),
        (lambda: gen_uniform(200, 16, (1.0, 8.0), 20.0, 1), lambda: DelayPolicy(4.0), 4.0),
        # 96 migrations over 256 items, every one by a drain
        (lambda: gen_basic_lb(16, 16.0, 0), lambda: MultiClassPolicy(Fraction(2, 5)), 0.0),
    ],
    ids=["firstfit", "alg2", "delay", "alg2 drains"],
)
def test_records_are_flat_lists_of_plain_values(make_instance, make_policy, delay_cost):
    result = simulate(make_instance(), make_policy(), delay_cost=delay_cost)
    assert not any(type(x) is tuple for x in result.actions)
    assert not any(type(x) is tuple for x in result.events)
    kinds = {act[0] for _, act in action_records(result.actions)}
    assert {"open", "place", "depart", "close"} <= kinds
    assert len(result.events) % 4 == 0
    counts = result.events[3::4]
    assert sum(counts) == len(result.actions)
    # each count is one of the small ints CPython shares, not an object per event
    assert all(type(c) is int and 0 <= c <= 256 for c in counts)


class Checkpointer(Policy):
    """Places every item first fit and schedules the checkpoints `plan`
    lists for it when it arrives; logs each on_checkpoints call, and
    schedules each (item, time) in `again` once more from inside it."""

    def __init__(self, plan, again=()):
        self.plan = plan
        self.again = set(again)
        self.calls = []

    def on_arrival(self, item_id, size_num, time):
        self.engine.place_first_fit(item_id, "g", (GOOD,), GOOD)
        for t in self.plan.get(item_id, ()):
            self.engine.schedule_checkpoint(item_id, t)

    def on_checkpoints(self, item_ids, time):
        self.calls.append((time, list(item_ids)))
        for item_id in item_ids:
            if (item_id, time) in self.again:
                self.again.discard((item_id, time))
                self.engine.schedule_checkpoint(item_id, time)


def test_checkpoints_fire_once_per_item_and_time_in_id_order():
    # item 0 (0 to 10) has a checkpoint at 2 twice, one at 6 that it
    # schedules again at 6 when it fires, and one at its departure time;
    # item 2 (0 to 8) schedules its checkpoint at 3 before item 1 (1 to 4)
    # does, and item 1 has one more at 5, after it departs
    policy = Checkpointer({0: [2.0, 6.0, 2.0, 10.0], 1: [5.0, 3.0], 2: [3.0]}, again=[(0, 6.0)])
    items = [Item(0, 0.0, 1, 10.0), Item(1, 1.0, 1, 3.0), Item(2, 0.0, 1, 8.0)]
    result = simulate(inst(items), policy)
    assert policy.calls == [(2.0, [0]), (3.0, [1, 2]), (6.0, [0]), (6.0, [0])]
    assert [(t, i) for t, kind, i, _ in event_records(result.events) if kind == "CHECKPOINT"] == [
        (2.0, 0), (3.0, 1), (6.0, 0), (6.0, 0)
    ]
