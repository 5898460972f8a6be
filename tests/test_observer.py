"""The incremental bad_bins/junk_load observer against a full rescan.

The reference walks every open bin after every event, the way the
observer worked before it replayed the trace. Both watch the same
engine, event by event, until the first violation either one raises.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, reject, settings, strategies as st

from dynbin.algorithms import (
    DelayPolicy,
    FirstFitPolicy,
    MultiClassPolicy,
    SingleClassPolicy,
    SizeCostPolicy,
)
from dynbin.core import Instance, Item
from dynbin.engine import (
    BAD,
    GOOD,
    JUNK,
    Policy,
    Replay,
    SimulationError,
    check_records,
    simulate,
)
from dynbin.generators import gen_fig2, gen_uniform
from dynbin.harness import InvariantViolation, bad_bin_observer


def rescan_observer(scale):
    """Counts Bad bins and junk loads from the open bins after every event."""

    def observe(engine, time):
        counts = {}
        for b in engine.open_bins():
            if b.label == BAD:
                counts[b.group] = counts.get(b.group, 0) + 1
            if b.group.startswith("junk") and b.load > scale:
                raise InvariantViolation(
                    "junk_load", f"junk bin {b.id} over capacity", time
                )
        for group, count in counts.items():
            if count > 1:
                raise InvariantViolation(
                    "bad_bins", f"{count} Bad bins in group {group}", time
                )
            if group == "class:0" and count > 0:
                raise InvariantViolation("bad_bins", "Bad bin in class 0", time)

    return observe


def outcome(observer, engine, time):
    try:
        observer(engine, time)
    except InvariantViolation as exc:
        return str(exc)
    return None


def compare(instance, policy, scale=None, delay_cost=0.0):
    """Run both observers after every event up to the first violation;
    returns the number of events compared and that violation, if any.
    At the instance's own scale, the replay of the stored run that
    checked_run makes must find the same first violation."""
    scale = instance.scale if scale is None else scale
    reference, incremental = rescan_observer(scale), bad_bin_observer(scale)
    seen = []

    def both(engine, time):
        if seen and seen[-1] is not None:
            return
        expected = outcome(reference, engine, time)
        assert outcome(incremental, engine, time) == expected, f"t={time}"
        seen.append(expected)

    result = simulate(instance, policy, delay_cost=delay_cost, observers=[both])
    first = seen[-1] if seen else None
    if scale == instance.scale:
        broken = check_records(result)[1]
        assert (broken and str(InvariantViolation(*broken))) == first
    return len(seen), first


POLICIES = {
    "firstfit": lambda: (FirstFitPolicy(), 0.0),
    "alg1": lambda: (SingleClassPolicy(Fraction(1, 4), Fraction(1, 2)), 0.0),
    "alg2": lambda: (MultiClassPolicy(Fraction(1, 4)), 0.0),
    "sizecost": lambda: (SizeCostPolicy(Fraction(1, 4)), 0.0),
    "delay": lambda: (DelayPolicy(4.0), 4.0),
}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_matches_rescan_on_acceptance_shapes(name):
    instances = [gen_uniform(40, 16, (1.0, 2.0), 20.0, seed) for seed in range(5)]
    instances += [gen_uniform(25, 8, (1.0, 4 * math.sqrt(100.0)), 10.0, 0)]
    # about 40 live items over 600 arrivals, so bins and junk phases close
    instances += [gen_uniform(600, 16, (1.0, 2.0), 600 * 1.5 / 40, 3)]
    for instance in instances:
        policy, delay_cost = POLICIES[name]()
        events, violation = compare(instance, policy, delay_cost=delay_cost)
        assert events > 0 and violation is None
    fig2 = gen_fig2(4, 10.0)
    policy, delay_cost = POLICIES[name]()
    assert compare(fig2, policy, delay_cost=delay_cost)[1] is None


class Meddler(Policy):
    """Runs a policy and, after each arrival, makes the move drawn for it:
    0 nothing, 1 open an empty Bad bin in the item's group, 2 open and
    close a Junk bin in the item's group, then relabel Bad a bin that
    closed earlier in the event (the engine keeps those until the event
    ends), 3 relabel the item's bin Bad, 4 migrate the item to another bin
    of its group, a new one if none fits. Good bins stay Good."""

    def __init__(self, inner, moves):
        self.inner = inner
        self.moves = iter(moves)

    def bind(self, engine):
        super().bind(engine)
        self.inner.bind(engine)

    def on_arrival(self, item_id, size_num, time):
        self.inner.on_arrival(item_id, size_num, time)
        engine = self.engine
        move, pick = next(self.moves, (0, 0))
        b = engine.bin(engine.placement[item_id])
        if move == 1:
            engine.open_bin(BAD, b.group)
        elif move == 2:
            engine.close_bin(engine.open_bin(JUNK, b.group).id)
            closed = [c for c in engine.bins.values() if c.closed and c.label != GOOD]
            engine.set_label(closed[pick % len(closed)].id, BAD)
        elif move == 3 and b.label != GOOD:
            engine.set_label(b.id, BAD)
        elif move == 4:
            fits = [
                c for c in engine.bins_in(b.group)
                if c is not b and c.load + size_num <= engine.scale
            ]
            dest = fits[0] if fits else engine.open_bin(b.label, b.group)
            engine.migrate(item_id, dest.id, "meddle", b.group, time)

    def on_departure(self, item_id, bin_id, time):
        self.inner.on_departure(item_id, bin_id, time)

    def on_checkpoints(self, item_ids, time):
        self.inner.on_checkpoints(item_ids, time)


@st.composite
def instances(draw):
    scale = draw(st.integers(2, 16))
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(1, 4), st.integers(1, scale)),
            min_size=1,
            max_size=40,
        )
    )
    items = tuple(Item(i, float(a), s, float(d)) for i, (a, d, s) in enumerate(rows))
    return Instance(items=items, scale=scale)


@settings(max_examples=200, deadline=None)
@given(
    instances(),
    st.sampled_from(sorted(POLICIES)),
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 100)), max_size=40),
)
def test_matches_rescan_on_drawn_instances(instance, name, shrink, moves):
    # a scale below the instance's makes junk bins overflow by the
    # observer's measure; the moves break the Bad-bin structure
    policy, delay_cost = POLICIES[name]()
    compare(
        instance,
        Meddler(policy, moves),
        scale=max(1, instance.scale - shrink),
        delay_cost=delay_cost,
    )


class TwoBadBins(Policy):
    def on_arrival(self, item_id, size_num, time):
        self.engine.place(item_id, self.engine.open_bin(BAD, "class:1").id)


class BadInClassZero(Policy):
    def on_arrival(self, item_id, size_num, time):
        self.engine.place(item_id, self.engine.open_bin(BAD, "class:0").id)


class BadBinsAtBind(Policy):
    """Opens two Bad bins of one group while binding, before any event."""

    def bind(self, engine):
        super().bind(engine)
        engine.open_bin(BAD, "class:1")
        engine.open_bin(BAD, "class:1")

    def on_arrival(self, item_id, size_num, time):
        self.engine.place(item_id, self.engine.open_bin(GOOD, "class:2").id)


class OverfillJunk(Policy):
    """Puts every item in one junk bin opened at bind time, with the
    engine's capacity check widened to twice the bin size."""

    def bind(self, engine):
        super().bind(engine)
        self.junk = engine.open_bin(JUNK, "junk:1", persistent=True)

    def on_arrival(self, item_id, size_num, time):
        self.engine.scale *= 2
        try:
            self.engine.place(item_id, self.junk.id)
        finally:
            self.engine.scale //= 2


@pytest.mark.parametrize(
    "policy, message",
    [
        (TwoBadBins, "bad_bins: 2 Bad bins in group class:1 (t=1.0)"),
        (BadInClassZero, "bad_bins: Bad bin in class 0 (t=0.0)"),
        (OverfillJunk, "junk_load: junk bin 0 over capacity (t=1.0)"),
        # bind-time records count toward the first event
        (BadBinsAtBind, "bad_bins: 2 Bad bins in group class:1 (t=0.0)"),
    ],
)
def test_raises_what_the_rescan_raises(policy, message):
    instance = Instance(items=tuple(Item(i, float(i), 5, 10.0) for i in range(3)), scale=8)
    for observer in (rescan_observer, bad_bin_observer):
        with pytest.raises(InvariantViolation) as info:
            simulate(instance, policy(), observers=[observer(instance.scale)])
        assert str(info.value) == message
        assert compare(instance, policy())[1] == message


@pytest.mark.parametrize(
    "policy, broken",
    [
        (TwoBadBins, True),
        (BadInClassZero, True),
        (OverfillJunk, True),
        (lambda: MultiClassPolicy(Fraction(1, 4)), False),
    ],
)
def test_replay_keeps_only_the_event_being_read(policy, broken):
    """The bins and groups an event left for the Bad-bin check go at its
    end, checked or not, so a replay holds no more than one event's worth
    of them, before and after it finds a violation."""
    # at most three items live at once, so OverfillJunk stays within its widened check
    instance = Instance(items=tuple(Item(i, float(i), 5, 2.5) for i in range(40)), scale=8)
    result = simulate(instance, policy())
    for replay, time in follow_in_chunks(result, [1] * (len(result.events) // 4)):
        if time is not None:
            assert replay._over == [] and replay._rose == [], f"t={time}"
            # and it holds only the open bins
            assert replay._shut == [] and set(replay.loads) == set(replay.bins), f"t={time}"
    assert (replay.broken is not None) == broken


def follow_in_chunks(result, chunks):
    """Steps a Replay following copies of a run's records, which grow by
    the given numbers of events before each step, the rest before a last
    one; yields the replay and the time of the last event fed, if any."""
    replay = Replay(result.scale)
    actions, events = [], []
    step = replay.follow(actions, events).__next__
    k = pos = 0
    for size in [*chunks, len(result.events) // 4]:
        end = min(k + 4 * size, len(result.events))
        count = sum(result.events[k + 3 : end : 4])
        events += result.events[k:end]
        actions += result.actions[pos : pos + count]
        k, pos = end, pos + count
        step()
        yield replay, events[-4] if events else None


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_relabeling_a_bin_closed_in_the_same_event_is_clean(name):
    """Move 2 relabels a bin that closed earlier in its event, a call the
    engine allows; the replay lets it pass, and counts no Bad bin for it."""
    instance = gen_uniform(60, 16, (1.0, 2.0), 20.0, 0)
    policy, delay_cost = POLICIES[name]()
    result = simulate(
        instance, Meddler(policy, [(2, i) for i in range(60)]), delay_cost=delay_cost
    )
    actions = [act for event in result.trace for act in event["actions"]]
    relabeled = [act["bin"] for act in actions if act["action"] == "label" and act["new"] == BAD]
    closed = {act["bin"] for act in actions if act["action"] == "close"}
    assert len(relabeled) == 60 and set(relabeled) <= closed
    assert check_records(result) == (None, None)


class JunkShuttle(Policy):
    """Places each item in one junk bin, then migrates it to a bin of its
    own in the same group, so the first junk bin never holds two items."""

    def bind(self, engine):
        super().bind(engine)
        self.junk = engine.open_bin(JUNK, "junk:1", persistent=True)

    def on_arrival(self, item_id, size_num, time):
        self.engine.place(item_id, self.junk.id)
        dest = self.engine.open_bin(JUNK, "junk:1")
        self.engine.migrate(item_id, dest.id, "shuttle", "junk:1", time)


def test_junk_loads_follow_migrations_out():
    instance = Instance(items=tuple(Item(i, float(i), 5, 10.0) for i in range(3)), scale=8)
    assert compare(instance, JunkShuttle()) == (6, None)


def test_a_reused_observer_follows_each_run_from_its_start():
    """An observer called from a second engine reads that run's records
    from the first, not from where the first run's records ended."""
    observer = bad_bin_observer(8)
    simulate(gen_uniform(50, 8, (1.0, 2.0), 10.0, 0), FirstFitPolicy(), observers=[observer])
    instance = Instance(items=tuple(Item(i, float(i), 5, 10.0) for i in range(3)), scale=8)
    with pytest.raises(InvariantViolation) as info:
        simulate(instance, TwoBadBins(), observers=[observer])
    assert str(info.value) == "bad_bins: 2 Bad bins in group class:1 (t=1.0)"
    # and a clean run after a broken one is clean
    simulate(instance, FirstFitPolicy(), observers=[observer])


FAULTY = {
    policy.__name__: policy
    for policy in (TwoBadBins, BadInClassZero, OverfillJunk, BadBinsAtBind, JunkShuttle)
}


@settings(max_examples=200, deadline=None)
@given(
    instances(),
    st.sampled_from(sorted(POLICIES) + sorted(FAULTY)),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 100)), max_size=40),
    st.lists(st.integers(0, 4), max_size=60),
    st.none() | st.tuples(st.integers(0, 10**6), st.integers(0, 12)),
)
def test_stepping_equals_one_full_read(instance, name, moves, chunks, corrupt):
    """Fed a run's records in chunks as they grow (no event, one, several,
    or the bind-time event alone), the follower finds what one read of the
    whole run finds. A corrupted int field (an item, a bin or a size) gives
    the packing checks something to find."""
    policy, delay_cost = POLICIES[name]() if name in POLICIES else (FAULTY[name](), 0.0)
    try:
        result = simulate(instance, Meddler(policy, moves), delay_cost=delay_cost)
    except SimulationError:
        reject()  # OverfillJunk past even its widened capacity
    if corrupt is not None:
        at, value = corrupt
        ints = [i for i, entry in enumerate(result.actions) if type(entry) is int]
        if ints:
            result.actions[ints[at % len(ints)]] = value

    def stepped():
        for replay, _ in follow_in_chunks(result, chunks):
            pass
        if replay.placed and replay.problem is None:  # as check_records ends
            return "items left placed at end of trace", replay.broken
        return replay.problem, replay.broken

    assert stepped() == check_records(result)


def records(scale, *events):
    """A stored run's records, hand-made: each event is its time and its
    actions, each an action name followed by its ACTION_FIELDS values."""
    actions, flat = [], []
    for time, acts in events:
        count = sum(map(len, acts))
        for act in acts:
            actions.extend(act)
        flat.extend((time, "ARRIVAL", None, count))
    return SimpleNamespace(scale=scale, actions=actions, events=flat)


OPEN_0_1 = (0.0, [("open", 0, GOOD, "g"), ("open", 1, GOOD, "g")])


@pytest.mark.parametrize(
    "events, problem",
    [
        # item 0's migrate names size 5, not the 3 it was placed with, so
        # bin 0 would read empty with item 1 in it, close, and be gone
        # when item 1 departs from it
        (
            [
                (1.0, [("place", 0, 0, 3), ("place", 1, 0, 2)]),
                (2.0, [("migrate", 0, 0, 1, 5), ("close", 0)]),
                (3.0, [("depart", 1, 0, 2)]),
            ],
            "t=2.0: migration of item 0 with wrong size",
        ),
        # an item of size 0 leaves its bin empty, so the bin closes under it
        (
            [(1.0, [("place", 0, 0, 0), ("close", 0)]), (2.0, [("depart", 0, 0, 0)])],
            "t=2.0: item 0 departed from bin 0, which is not open",
        ),
        (
            [(1.0, [("place", 0, 0, 0), ("close", 0)]), (2.0, [("migrate", 0, 0, 1, 0)])],
            "t=2.0: item 0 migrated from bin 0, which is not open",
        ),
    ],
)
def test_a_bin_the_replay_no_longer_holds_is_a_packing_problem(events, problem):
    assert check_records(records(8, OPEN_0_1, *events)) == (problem, None)


def test_the_first_group_to_break_in_an_event_is_reported():
    """In one event class:1 gains a first Bad bin, class:2 a second, then
    class:1 a second: the violation names class:1, whose Bad count rose
    first, although its first rise could not break the check."""
    run = records(
        8,
        (0.0, [("open", 0, BAD, "class:2")]),
        (1.0, [("open", 1, BAD, "class:1"), ("open", 2, BAD, "class:2"), ("open", 3, BAD, "class:1")]),
    )
    assert check_records(run) == (None, ("bad_bins", "2 Bad bins in group class:1", 1.0))
