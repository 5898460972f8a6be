"""The one-call first-fit placement against the calls it replaces.

`Engine.place_first_fit` searches, opens a bin if nothing fits and
attaches the item in one call; `Engine.migrate_first_fit` does the same
for a batch of migrations, every item leaving its bin first. The
reference policies below make the same decisions as separate calls:
`first_fit` per label, then `open_bin`, then `place`, or for a batch,
each item staged out of its bin, then `first_fit`, `open_bin` and an
attach per item, on a test-side engine built from the engine's private
helpers. Both must leave identical records, and the first-fit trees
must stay what a fresh build from the open bins gives.
"""

from fractions import Fraction

import pytest

from dynbin import algorithms
from dynbin.algorithms import (
    DelayPolicy,
    FirstFitPolicy,
    MultiClassPolicy,
    SingleClassMigrator,
    SingleClassPolicy,
    SizeCostPolicy,
)
from dynbin.core import Instance, Item
from dynbin.engine import BAD, GOOD, Engine, FirstFitIndex, Policy
from dynbin.generators import gen_uniform


class TreesOnlyEngine(Engine):
    """Searches every group through its first-fit trees, however few
    bins are open."""

    SCAN_LIMIT = 0


class StagingEngine(Engine):
    """Offers a migration as two calls: one takes the item out of its
    bin, the other attaches it to a bin of the caller's choice."""

    def begin_migration(self, item_id):
        return self._unplace(item_id)

    def complete_migration(self, item_id, src, bin_id, rule, time):
        self._attach(item_id, bin_id)
        self._migrated(item_id, self.live[item_id], src, bin_id, rule, time)


class StagingTreesOnlyEngine(StagingEngine):
    SCAN_LIMIT = 0


# the engine each reference policy runs on, per engine under test
STAGING = {Engine: StagingEngine, TreesOnlyEngine: StagingTreesOnlyEngine}


class ReferenceMigrator(SingleClassMigrator):
    """The single-class arrival rule as separate engine calls."""

    def place(self, item_id, size_num):
        engine = self.engine
        target = engine.first_fit(self.group, (BAD,), size_num)
        if target is None:
            target = engine.first_fit(self.group, (GOOD,), size_num)
        if target is None:  # Good if the item alone reaches f
            threshold, den = self._good_at
            target = engine.open_bin(GOOD if size_num * den >= threshold else BAD, self.group)
        engine.place(item_id, target.id)
        self._relabel(target)


class ReferenceFirstFit(FirstFitPolicy):
    def on_arrival(self, item_id, size_num, time):
        engine = self.engine
        b = engine.first_fit("ff", (GOOD,), size_num) or engine.open_bin(GOOD, "ff")
        engine.place(item_id, b.id)


class ReferenceDelay(DelayPolicy):
    """The delay rules as separate engine calls, tracking each item's pool
    in a map of its own rather than from the migration count."""

    def bind(self, engine):
        super().bind(engine)
        self.location = {}

    def on_arrival(self, item_id, size_num, time):
        engine = self.engine
        b = engine.first_fit("Is", (GOOD,), size_num) or engine.open_bin(GOOD, "Is")
        engine.place(item_id, b.id)
        self.location[item_id] = "Is"
        engine.schedule_checkpoint(item_id, time + self.sqrt_c)

    def on_checkpoints(self, item_ids, time):
        engine = self.engine
        staged = [(i, engine.begin_migration(i)) for i in sorted(item_ids)]
        for item_id, src in staged:
            size_num = engine.size_of(item_id)
            dest = engine.first_fit("Ib", (GOOD,), size_num) or engine.open_bin(GOOD, "Ib")
            rule = "small-to-big" if self.location[item_id] == "Is" else "reshuffle"
            engine.complete_migration(item_id, src, dest.id, rule, time)
            self.location[item_id] = "Ib"
            engine.schedule_checkpoint(item_id, time + self.delay_cost + self.sqrt_c)


def alg1():
    return SingleClassPolicy(Fraction(1, 4), Fraction(1, 2))


def alg2():
    return MultiClassPolicy(Fraction(1, 4))


def sizecost():
    return SizeCostPolicy(Fraction(1, 4))


# name -> (policy, its reference, delay cost); the single-class policies
# are their own reference while SingleClassMigrator is ReferenceMigrator
POLICIES = {
    "firstfit": (FirstFitPolicy, ReferenceFirstFit, 0.0),
    "alg1": (alg1, alg1, 0.0),
    "alg2": (alg2, alg2, 0.0),
    "sizecost": (sizecost, sizecost, 0.0),
    "delay": (lambda: DelayPolicy(4.0), lambda: ReferenceDelay(4.0), 4.0),
}


def on_grid(instance):
    """The instance with arrivals floored and durations raised to whole
    numbers, so many items share each delay checkpoint time."""
    items = tuple(
        Item(it.id, float(int(it.arrival)), it.size_num, float(int(it.duration) + 1))
        for it in instance.items
    )
    return Instance(items=items, scale=instance.scale)


INSTANCES = [
    # about 40 live items over 300 arrivals: hundreds of bins close
    lambda seed: gen_uniform(300, 16, (1.0, 2.0), 300 * 1.5 / 40, seed),
    # about 150 live items: the groups of firstfit, alg1, alg2 (class 0)
    # and delay (Is) pass Engine.SCAN_LIMIT, so the default engine builds
    # their trees mid-run
    lambda seed: gen_uniform(400, 16, (1.0, 2.0), 400 * 1.5 / 150, seed),
    # about 100 live items on a coarse grid: long first-fit searches, and
    # delay items that migrate more than once
    lambda seed: gen_uniform(200, 8, (1.0, 8.0), 8.0, seed),
    # whole-number times: many delay items share each checkpoint time,
    # so the batches hold several
    lambda seed: on_grid(gen_uniform(200, 8, (1.0, 8.0), 20.0, seed)),
]


def records(result):
    return (
        result.actions,
        result.events,
        list(map(tuple, result.ledger.entries)),
        result.total_active_time,
    )


@pytest.mark.parametrize("engine_cls", [Engine, TreesOnlyEngine])
@pytest.mark.parametrize("name", sorted(POLICIES))
@pytest.mark.parametrize("seed", range(4))
def test_one_call_placement_matches_the_separate_calls(monkeypatch, engine_cls, name, seed):
    make, make_reference, delay_cost = POLICIES[name]
    for build in INSTANCES:
        instance = build(seed)
        result = engine_cls(instance, make(), delay_cost).run()
        with monkeypatch.context() as patch:
            patch.setattr(algorithms, "SingleClassMigrator", ReferenceMigrator)
            expected = STAGING[engine_cls](instance, make_reference(), delay_cost).run()
        assert records(result) == records(expected)
        assert result.times == expected.times
        assert result.open_counts == expected.open_counts
        assert result.departures == expected.departures
    if name in ("alg1", "alg2", "delay"):
        assert result.ledger.entries  # the migration path ran on the last instance
    if name == "delay":  # and some batch moved more than one item
        times = [e.time for e in result.ledger.entries]
        assert len(set(times)) < len(times)


def test_a_new_bin_leaf_is_written_once(monkeypatch):
    # items of 9/16 never share a bin, so each placement opens one; the
    # group's trees exist from the second search on
    writes = []
    write = FirstFitIndex._write
    monkeypatch.setattr(
        FirstFitIndex,
        "_write",
        lambda index, tree, leaf, value: writes.append((leaf, value))
        or write(index, tree, leaf, value),
    )
    items = tuple(Item(i, 0.0, 9, 1.0) for i in range(7)) + (Item(7, 0.0, 7, 1.0),)
    engine = TreesOnlyEngine(Instance(items=items, scale=16), Policy())
    engine.live.update((it.id, it.size_num) for it in items)
    for item_id in range(7):
        writes.clear()
        b = engine.place_first_fit(item_id, "g", (GOOD,), GOOD)
        assert b.id == item_id and b.load == 9
        if item_id:  # the first bin opens before any tree exists
            assert writes == [(engine._fit["g"].slot[b.id], 16 - 9)]
    # a fit into an open bin writes its leaf once too
    writes.clear()
    b = engine.place_first_fit(7, "g", (GOOD,), GOOD)
    assert b.id == 0 and b.load == 16
    assert writes == [(engine._fit["g"].slot[0], 0)]
    assert engine.actions[:8] == ["open", 0, GOOD, "g", "place", 0, 0, 9]


def expected_trees(index, open_bins, scale):
    """Every tree of the index rebuilt from the open bins, bottom up, on
    the index's own slots."""
    size = index.size
    trees = {}
    for label in set(index.trees) | {b.label for b in open_bins.values()}:
        tree = [-1] * (2 * size)
        for b in open_bins.values():
            if b.label == label:
                tree[size + index.slot[b.id]] = scale - b.load
        for i in range(size - 1, 0, -1):
            tree[i] = max(tree[2 * i], tree[2 * i + 1])
        trees[label] = tree
    return trees


def compact_leaves(index, open_bins, label):
    tree = index.trees.get(label)
    if tree is None:
        return [-1] * len(open_bins)
    return [tree[index.size + index.slot[bin_id]] for bin_id in open_bins]


@pytest.mark.parametrize("engine_cls", [Engine, TreesOnlyEngine])
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_trees_equal_a_fresh_build_after_every_event(engine_cls, name):
    make, _, delay_cost = POLICIES[name]
    checked = []

    def watch(engine, time):
        for group, index in engine._fit.items():
            open_bins = engine._open_by_group.get(group, {})
            assert sorted(index.slot) == sorted(open_bins), f"t={time}"
            slots = [index.slot[bin_id] for bin_id in open_bins]
            assert slots == sorted(slots), f"t={time}"  # opening order
            assert all(index.at[index.slot[i]] is b for i, b in open_bins.items())
            assert index.trees == expected_trees(index, open_bins, engine.scale), f"t={time}"
            fresh = FirstFitIndex(engine.scale, open_bins)
            for label in set(index.trees) | set(fresh.trees):
                assert compact_leaves(index, open_bins, label) == compact_leaves(
                    fresh, open_bins, label
                ), f"t={time} group={group} label={label}"
            checked.append(group)

    for build in INSTANCES:
        engine_cls(build(0), make(), delay_cost, observers=[watch]).run()
    # sizecost's shared pool of items below 1/4 stays within the scan
    if engine_cls is TreesOnlyEngine or name != "sizecost":
        assert checked  # some group searched through its trees
