"""The engine's open-bin index and first-fit trees against naive scans.

The naive references walk a registry of every bin the engine opened, in
id order: the scan the engine did on every placement before it kept an
index of open bins. The tests keep that registry themselves, from what
`open_bin` returns or from `Engine.bins` after every event, so the
references do not rest on the index or the trees. A registered bin is
open while it is in `Engine.bins`, which a bin leaves when it closes.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from dynbin.algorithms import (
    DelayPolicy,
    FirstFitPolicy,
    MultiClassPolicy,
    SingleClassPolicy,
    SizeCostPolicy,
)
from dynbin.core import Instance, Item
from dynbin.engine import BAD, GOOD, JUNK, Engine, Policy, simulate
from dynbin.generators import gen_uniform

SCALE = 8
GROUPS = ("a", "b")


def naive_first_fit(bins, scale, group, labels, size_num):
    """The first fit over open bins, listed in id order, trying the labels in turn."""
    for label in labels:
        for b in bins:
            if b.group == group and b.label == label and b.load + size_num <= scale:
                return b
    return None


def open_by_id(registry, engine):
    """The registered bins still in Engine.bins, in id order."""
    return sorted((b for b in registry.values() if b.id in engine.bins), key=lambda b: b.id)


def naive_open_index(open_bins):
    groups = {}
    for b in open_bins:
        groups.setdefault(b.group, []).append(b.id)
    return groups


def open_index(engine):
    index = {}
    for group, bins in engine._open_by_group.items():
        assert all(bin_id == b.id for bin_id, b in bins.items())
        if bins:
            index[group] = list(bins)
    return index


# each label alone, and both in either order: alg2 searches Bad, then Good
LABEL_TUPLES = ((BAD,), (GOOD,), (BAD, GOOD), (GOOD, BAD))

op = st.tuples(
    st.sampled_from(["open", "attach", "detach", "close", "relabel"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)


# 0 builds a group's trees on its first search, and 3 mid-run from bins
# already open (of mixed labels, persistent ones too); the default scans
# every group these ops can open
@pytest.mark.parametrize("scan_limit", [0, 3, Engine.SCAN_LIMIT])
@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(1, SCALE), min_size=1, max_size=60),
    ops=st.lists(op, min_size=100, max_size=250),
)
# drawn op lists hold 100 to 250 ops, so at scan limit 0 nearly every one
# outgrows a group's slots and renumbers its trees; this short one opens
# four bins in one group, a persistent Bad bin and a loaded Good bin among them
@example(
    sizes=[3, 5, 2, 8, 1],
    ops=[
        ("open", 0, 0), ("open", 1, 1), ("attach", 0, 0), ("open", 1, 0),
        ("attach", 1, 1), ("open", 0, 1), ("open", 1, 2), ("attach", 2, 0),
        ("relabel", 0, 0), ("detach", 0, 0), ("close", 1, 0), ("attach", 3, 3),
    ],
)
def test_first_fit_matches_naive_scan(scan_limit, sizes, ops):
    items = [Item(i, 0.0, s, 1.0) for i, s in enumerate(sizes)]
    engine = Engine(Instance(items=tuple(items), scale=SCALE), Policy())
    engine.SCAN_LIMIT = scan_limit
    engine.live.update(enumerate(sizes))  # every item has arrived
    registry = {}  # every bin opened
    for kind, x, y in ops:
        live = open_by_id(registry, engine)
        if kind == "open":
            b = engine.open_bin(
                (BAD, GOOD)[x % 2], GROUPS[(x // 2) % len(GROUPS)], persistent=y % 3 == 0
            )
            registry[b.id] = b
        elif kind == "attach":
            unplaced = [i for i in range(len(sizes)) if i not in engine.placement]
            if not unplaced:
                continue
            item = unplaced[x % len(unplaced)]
            fits = [b for b in live if b.load + sizes[item] <= SCALE]
            if fits:
                engine._attach(item, fits[y % len(fits)].id)
        elif kind == "detach":
            placed = sorted(engine.placement)
            if placed:
                item = placed[x % len(placed)]
                engine._detach(item, engine.bins[engine.placement.pop(item)])
        elif kind == "close" and live:
            engine.close_bin(live[x % len(live)].id)
        elif kind == "relabel" and live:
            b = live[x % len(live)]
            if b.label == BAD:
                engine.set_label(b.id, GOOD)
        bins = open_by_id(registry, engine)
        expected = naive_open_index(bins)
        assert open_index(engine) == expected
        for group in GROUPS:
            assert [b.id for b in engine.bins_in(group)] == expected.get(group, [])
            # the group's open bins, taken once for its 32 queries
            candidates = [b for b in bins if b.group == group]
            for labels in LABEL_TUPLES:
                for size_num in range(1, SCALE + 1):
                    assert engine.first_fit(group, labels, size_num) is naive_first_fit(
                        candidates, SCALE, group, labels, size_num
                    ), (labels, size_num)


@pytest.mark.parametrize("scan_limit", [0, Engine.SCAN_LIMIT])
def test_first_fit_takes_the_labels_in_turn(scan_limit):
    """Every label tuple of up to three labels, repeats and the empty one
    included, over one group of bins of three labels and mixed loads. An
    item of size 6 fits in two Junk bins and in no other."""
    loads = [(GOOD, 6), (JUNK, 2), (BAD, 7), (JUNK, 1), (GOOD, 4), (BAD, 3), (JUNK, 5)]
    items = [Item(i, 0.0, load, 1.0) for i, (_, load) in enumerate(loads)]
    engine = Engine(Instance(items=tuple(items), scale=SCALE), Policy())
    engine.SCAN_LIMIT = scan_limit
    engine.live.update((item.id, item.size_num) for item in items)
    registry = {}
    for item, (label, _) in zip(items, loads):
        b = engine.open_bin(label, "a")
        engine.place(item.id, b.id)
        registry[b.id] = b
    bins = open_by_id(registry, engine)
    for length in range(4):
        for labels in product((BAD, GOOD, JUNK), repeat=length):
            for size_num in range(1, SCALE + 1):
                assert engine.first_fit("a", labels, size_num) is naive_first_fit(
                    bins, SCALE, "a", labels, size_num
                ), (labels, size_num)


POLICIES = {
    "firstfit": lambda: (FirstFitPolicy(), 0.0),
    "alg1": lambda: (SingleClassPolicy(Fraction(1, 4), Fraction(1, 2)), 0.0),
    "alg2": lambda: (MultiClassPolicy(Fraction(1, 4)), 0.0),
    "sizecost": lambda: (SizeCostPolicy(Fraction(1, 4)), 0.0),
    "delay": lambda: (DelayPolicy(1.0), 1.0),
}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_open_index_matches_registry_after_every_event(name):
    # about 40 live items over 300 arrivals, so hundreds of bins close
    instance = gen_uniform(300, 16, (1.0, 2.0), 300 * 1.5 / 40, 7)
    policy, delay_cost = POLICIES[name]()
    events = []
    registry = {}  # every bin opened, each entered after the event that opened it

    def watch(engine, time):
        registry.update(engine.bins)
        bins = open_by_id(registry, engine)
        expected = naive_open_index(bins)
        assert open_index(engine) == expected, f"t={time}"
        for group, ids in expected.items():
            for label in {registry[i].label for i in ids}:
                for size_num in (1, 5, 8, 13, 16):
                    assert engine.first_fit(group, (label,), size_num) is naive_first_fit(
                        bins, engine.scale, group, (label,), size_num
                    ), f"t={time} group={group} label={label} size={size_num}"
        events.append(time)

    result = simulate(instance, policy, delay_cost=delay_cost, observers=[watch])
    assert len(events) == len(result.trace) - (result.trace[0]["kind"] == "SETUP")


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_engine_bins_hold_only_the_open_bins(name):
    """After every event, each bin in Engine.bins holds an item or is
    persistent, the bins of every group, by bins_in, are Engine.bins, and
    no bin that left Engine.bins comes back."""
    instance = gen_uniform(300, 16, (1.0, 2.0), 300 * 1.5 / 40, 7)
    policy, delay_cost = POLICIES[name]()
    seen, gone = set(), set()

    def watch(engine, time):
        assert all(b.load or b.persistent for b in engine.bins.values()), f"t={time}"
        in_groups = [b for group in engine._open_by_group for b in engine.bins_in(group)]
        assert len(in_groups) == len(engine.bins), f"t={time}"
        assert all(engine.bins.get(b.id) is b for b in in_groups), f"t={time}"
        assert not gone & engine.bins.keys(), f"t={time}"
        gone.update(seen - engine.bins.keys())
        seen.update(engine.bins)

    simulate(instance, policy, delay_cost=delay_cost, observers=[watch])
    assert len(gone) > 100  # hundreds of bins closed
